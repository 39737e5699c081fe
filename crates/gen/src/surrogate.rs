//! Named surrogate datasets standing in for the paper's nine real-world
//! networks (Table 3), which cannot be redistributed or fetched offline.
//! Each surrogate is a seeded generator whose parameters put it in the
//! same structural regime as the original; [`dataset_names`] lists them
//! in Table 3 row order. The mapping, and why:
//!
//! * `skitter-s` (internet topology): R-MAT with skewed quadrant
//!   probabilities, for the heavy-tailed degrees and hub-dominated cores
//!   of a traceroute graph.
//! * `berkeley13-s`, `mit-s`, `stanford3-s`, `texas84-s` (Facebook
//!   university networks): planted partitions — dense blocks with sparse
//!   links between them, the community structure that gives these
//!   graphs many deep, nested nuclei. Block counts and sizes follow the
//!   originals' relative sizes (MIT smallest, Texas largest).
//! * `twitter-hb-s` (retweet cascade): Holme–Kim, preferential
//!   attachment plus triad formation, so hubs come with the triangles a
//!   cascade closes.
//! * `google-s` (web graph): R-MAT with a more skewed first quadrant
//!   than skitter's (0.65 against 0.57), for the web's more
//!   concentrated link structure.
//! * `uk2005-s` (web crawl with huge cliques): planted cliques joined by
//!   triangle-free bridges, the regime where every (2,3) connection
//!   stays inside one λ level (Table 3's c↓ = 0).
//! * `wiki-s` (wiki links): Barabási–Albert preferential attachment,
//!   scale-free with few triangles per edge.
//!
//! Three scales are provided so tests (Small), default benches (Medium)
//! and patient full runs (Large) can share one registry.

use nucleus_graph::CsrGraph;

use crate::ba::barabasi_albert;
use crate::holme_kim::holme_kim;
use crate::planted::{planted_cliques, planted_partition};
use crate::rmat::{rmat, RmatParams};

/// Dataset scale knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny instances for unit/integration tests (< 2k vertices).
    Small,
    /// Default bench scale: seconds per decomposition on a laptop.
    Medium,
    /// Stress scale for full reproduction runs.
    Large,
}

/// All registered surrogate names, in Table 3 row order.
pub fn dataset_names() -> &'static [&'static str] {
    &[
        "skitter-s",    // internet topology → RMAT skewed
        "berkeley13-s", // facebook: planted partition, dense blocks
        "mit-s",        // facebook, smaller
        "stanford3-s",  // facebook
        "texas84-s",    // facebook, larger
        "twitter-hb-s", // retweet cascade → Holme–Kim
        "google-s",     // web → RMAT heavy
        "uk2005-s",     // web with huge cliques → planted cliques
        "wiki-s",       // wiki links → BA
    ]
}

/// Generates the named surrogate at the given scale.
///
/// # Panics
/// Panics on unknown names; use [`dataset_names`] for the registry.
pub fn dataset(name: &str, scale: Scale) -> CsrGraph {
    use Scale::*;
    match name {
        "skitter-s" => match scale {
            Small => rmat(9, 6, RmatParams::skewed(), 101),
            Medium => rmat(15, 8, RmatParams::skewed(), 101),
            Large => rmat(18, 10, RmatParams::skewed(), 101),
        },
        "berkeley13-s" => match scale {
            Small => planted_partition(6, 40, 0.35, 0.01, 102),
            Medium => planted_partition(40, 120, 0.30, 0.004, 102),
            Large => planted_partition(80, 260, 0.25, 0.002, 102),
        },
        "mit-s" => match scale {
            Small => planted_partition(4, 40, 0.40, 0.02, 103),
            Medium => planted_partition(20, 120, 0.38, 0.008, 103),
            Large => planted_partition(40, 180, 0.35, 0.005, 103),
        },
        "stanford3-s" => match scale {
            Small => planted_partition(5, 45, 0.38, 0.015, 104),
            Medium => planted_partition(30, 130, 0.33, 0.006, 104),
            Large => planted_partition(60, 200, 0.30, 0.004, 104),
        },
        "texas84-s" => match scale {
            Small => planted_partition(7, 40, 0.33, 0.012, 105),
            Medium => planted_partition(50, 130, 0.28, 0.004, 105),
            Large => planted_partition(90, 220, 0.26, 0.003, 105),
        },
        "twitter-hb-s" => match scale {
            Small => holme_kim(600, 5, 0.8, 106),
            Medium => holme_kim(30_000, 8, 0.8, 106),
            Large => holme_kim(150_000, 10, 0.85, 106),
        },
        "google-s" => match scale {
            Small => rmat(9, 5, RmatParams::heavy(), 107),
            Medium => rmat(15, 6, RmatParams::heavy(), 107),
            Large => rmat(18, 8, RmatParams::heavy(), 107),
        },
        "uk2005-s" => match scale {
            Small => planted_cliques(12, &[8, 12, 16], 108),
            Medium => planted_cliques(150, &[15, 20, 25, 30], 108),
            Large => planted_cliques(400, &[20, 30, 40, 50], 108),
        },
        "wiki-s" => match scale {
            Small => barabasi_albert(700, 5, 109),
            Medium => barabasi_albert(60_000, 7, 109),
            Large => barabasi_albert(400_000, 8, 109),
        },
        other => panic!("unknown surrogate dataset {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_generate_small() {
        for name in dataset_names() {
            let g = dataset(name, Scale::Small);
            assert!(g.n() > 0, "{name} empty");
            assert!(g.m() > 0, "{name} has no edges");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = dataset("skitter-s", Scale::Small);
        let b = dataset("skitter-s", Scale::Small);
        assert_eq!(a.edge_endpoints(), b.edge_endpoints());
    }

    #[test]
    #[should_panic]
    fn unknown_name_panics() {
        dataset("nope", Scale::Small);
    }
}
