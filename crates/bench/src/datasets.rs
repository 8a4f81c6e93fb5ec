//! The ten synthetic stand-ins for the paper's Table III datasets.
//!
//! Each spec pairs a paper dataset with a seeded generator chosen to match
//! its *structure class* (collaboration, social, web/topology, very dense
//! affiliation) at laptop scale; see `DESIGN.md` §4 for the substitution
//! rationale. Generated graphs are cached as binary CSR files under
//! `target/bestk-datasets/` so repeated harness runs pay generation once.

use bestk_graph::cast;
use bestk_graph::{generators, io, CsrGraph};

/// How to synthesize one dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Chung–Lu power law: `(n, avg_degree ×100, gamma ×100)`.
    ChungLu(usize, u32, u32),
    /// R-MAT: `(scale, edge_factor)` with Graph500 probabilities.
    Rmat(u32, usize),
    /// Overlapping cliques: `(n, cliques, min_size, max_size)`.
    Cliques(usize, usize, usize, usize),
    /// Overlapping cliques plus planted cliques of the given sizes —
    /// reproduces the paper datasets whose deep cores come from a few huge
    /// cliques (DBLP's 114-author paper, Hollywood's large casts):
    /// `(n, cliques, min_size, max_size, planted_sizes)`.
    CliquesPlanted(usize, usize, usize, usize, &'static [usize]),
    /// Barabási–Albert: `(n, attach)`.
    PrefAttach(usize, usize),
}

/// One dataset stand-in.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Short key used on the command line and in table rows (the paper's
    /// dataset abbreviation, lowercased).
    pub key: &'static str,
    /// The paper dataset this stands in for.
    pub paper_name: &'static str,
    /// Generator family and parameters.
    pub family: Family,
    /// Generator seed (fixed: the dataset *is* `(family, seed)`).
    pub seed: u64,
}

/// All ten stand-ins, ordered like the paper's Table III (by edge count).
pub fn all_specs() -> Vec<DatasetSpec> {
    vec![
        // Astro-Ph: collaboration network; co-authorship cliques.
        DatasetSpec {
            key: "ap",
            paper_name: "Astro-Ph",
            family: Family::CliquesPlanted(18_000, 4_200, 3, 12, &[57]),
            seed: 0x000A_5701,
        },
        // Gowalla: location-based social network, heavy tail.
        DatasetSpec {
            key: "g",
            paper_name: "Gowalla",
            family: Family::ChungLu(60_000, 970, 260),
            seed: 0x0904_A11A,
        },
        // DBLP: co-authorship; larger clique affiliation graph.
        DatasetSpec {
            key: "d",
            paper_name: "DBLP",
            // The planted ladder fills the deep cores the way DBLP's large
            // co-author papers do (the paper's Table IX query classes draw
            // from coreness 30..113).
            family: Family::CliquesPlanted(100_000, 36_000, 3, 9, &[70, 80, 90, 100, 114]),
            seed: 0xDB1B,
        },
        // Youtube: sparse social network with weak tail.
        DatasetSpec {
            key: "y",
            paper_name: "Youtube",
            family: Family::ChungLu(300_000, 530, 220),
            seed: 0x0070_70BE,
        },
        // As-Skitter: internet topology; RMAT skew.
        DatasetSpec {
            key: "as",
            paper_name: "As-Skitter",
            family: Family::Rmat(18, 13),
            seed: 0x00A5_5C17,
        },
        // LiveJournal: large social network.
        DatasetSpec {
            key: "lj",
            paper_name: "LiveJournal",
            family: Family::ChungLu(500_000, 1740, 240),
            seed: 0x0011_FE70,
        },
        // Hollywood: actor affiliation; huge cliques, enormous kmax.
        DatasetSpec {
            key: "h",
            paper_name: "Hollywood",
            family: Family::CliquesPlanted(60_000, 7_000, 10, 70, &[1200]),
            seed: 0x8011,
        },
        // Orkut: dense social network.
        DatasetSpec {
            key: "o",
            paper_name: "Orkut",
            family: Family::Rmat(19, 16),
            seed: 0x0000_8C07,
        },
        // Human-Jung: brain network; extremely dense, kmax in the hundreds.
        DatasetSpec {
            key: "hj",
            paper_name: "Human-Jung",
            family: Family::CliquesPlanted(20_000, 2_200, 40, 110, &[1000]),
            seed: 0x1FBA,
        },
        // FriendSter: the largest graph in the suite.
        DatasetSpec {
            key: "fs",
            paper_name: "FriendSter",
            family: Family::ChungLu(1_000_000, 2000, 250),
            seed: 0xF5F5,
        },
    ]
}

/// Looks up a spec by its key.
pub fn spec_by_key(key: &str) -> Option<DatasetSpec> {
    all_specs().into_iter().find(|s| s.key == key)
}

/// Generates the dataset (no cache).
pub fn generate(spec: &DatasetSpec) -> CsrGraph {
    match spec.family {
        Family::ChungLu(n, avg100, gamma100) => generators::chung_lu_power_law(
            n,
            avg100 as f64 / 100.0,
            gamma100 as f64 / 100.0,
            spec.seed,
        ),
        Family::Rmat(scale, ef) => generators::rmat(scale, ef, 0.57, 0.19, 0.19, spec.seed),
        Family::Cliques(n, cliques, lo, hi) => {
            generators::overlapping_cliques(n, cliques, (lo, hi), spec.seed)
        }
        Family::CliquesPlanted(n, cliques, lo, hi, planted) => {
            let base = generators::overlapping_cliques(n, cliques, (lo, hi), spec.seed);
            let extra: usize = planted.iter().map(|s| s * s / 2).sum();
            let mut b = bestk_graph::GraphBuilder::with_capacity(base.num_edges() + extra);
            b.reserve_vertices(n);
            b.extend_edges(base.edges());
            let mut rng = bestk_graph::rng::Xoshiro256::seed_from_u64(spec.seed ^ 0x9E37);
            for &size in planted {
                let members = rng.sample_distinct(n, size);
                for i in 0..members.len() {
                    for j in (i + 1)..members.len() {
                        b.add_edge(cast::u32_of(members[i]), cast::u32_of(members[j]));
                    }
                }
            }
            b.build()
        }
        Family::PrefAttach(n, attach) => generators::barabasi_albert(n, attach, spec.seed),
    }
}

/// Loads the dataset through the on-disk cache (`target/bestk-datasets/`).
pub fn load_dataset(spec: &DatasetSpec) -> CsrGraph {
    let dir = cache_dir();
    // Cache key covers the full parameterization so spec changes invalidate.
    let mut hash = bestk_graph::rng::SplitMix64 {
        state: spec.seed ^ format!("{:?}", spec.family).len() as u64,
    };
    let fam = format!("{:?}", spec.family);
    let mut digest = hash.next_u64();
    for b in fam.bytes() {
        hash.state ^= u64::from(b).wrapping_mul(0x100000001B3);
        digest ^= hash.next_u64();
    }
    let path = dir.join(format!("{}-{digest:016x}.bin", spec.key));
    if path.exists() {
        match io::read_binary_path(&path) {
            Ok(g) => return g,
            Err(e) => eprintln!("cache read failed for {} ({e}); regenerating", spec.key),
        }
    }
    let g = generate(spec);
    if std::fs::create_dir_all(&dir).is_ok() {
        if let Err(e) = io::write_binary_path(&g, &path) {
            eprintln!("cache write failed for {} ({e})", spec.key);
        }
    }
    g
}

fn cache_dir() -> std::path::PathBuf {
    // Keep the cache inside the workspace target dir; fall back to temp.
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            // bench binaries run from the workspace root
            std::path::PathBuf::from("target")
        });
    base.join("bestk-datasets")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_datasets_with_unique_keys() {
        let specs = all_specs();
        assert_eq!(specs.len(), 10);
        let mut keys: Vec<_> = specs.iter().map(|s| s.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 10);
    }

    #[test]
    fn lookup_by_key() {
        assert_eq!(spec_by_key("lj").unwrap().paper_name, "LiveJournal");
        assert!(spec_by_key("nope").is_none());
    }

    #[test]
    fn generation_is_deterministic_for_small_spec() {
        let spec = DatasetSpec {
            key: "test",
            paper_name: "Test",
            family: Family::ChungLu(2_000, 600, 250),
            seed: 42,
        };
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a, b);
        assert!(a.num_edges() > 2_000);
        assert!(a.validate().is_ok());
    }

    #[test]
    fn pref_attach_family_works() {
        let spec = DatasetSpec {
            key: "ba",
            paper_name: "BA",
            family: Family::PrefAttach(1_000, 4),
            seed: 7,
        };
        let g = generate(&spec);
        assert_eq!(g.num_vertices(), 1_000);
    }
}
