//! The k-truss variant zoo of §3.2 / Figure 3, as executable semantics.
//!
//! From the same λ₃ values, the literature's definitions extract
//! different subgraphs for a given k:
//!
//! * **k-dense** (Saito et al.) / **triangle k-core** (Zhang &
//!   Parthasarathy): *all* edges with λ₃ ≥ k — possibly disconnected;
//! * **k-truss** (Cohen) / **k-community** (Verma & Butenko): the
//!   *vertex-connected components* of those edges;
//! * **k-truss community** (Huang et al.) = **k-(2,3) nucleus**: the
//!   *triangle-connected components* — what the hierarchy stores.
//!
//! The definitions below make the paper's misconception discussion
//! testable: on the bowtie graph, one k-dense = one k-truss ≠ two
//! k-truss communities.
//!
//! Note the paper's k convention: Cohen's "k-truss" requires k−2
//! triangles per edge; here `k` is always the triangle count (λ₃ ≥ k),
//! matching the nucleus convention used throughout the workspace.

use std::collections::HashMap;

use nucleus_hierarchy::core::algo::dft::dft;
use nucleus_hierarchy::dsf::DisjointSets;
use nucleus_hierarchy::gen::{dataset, Scale};
use nucleus_hierarchy::prelude::*;

/// The k-dense subgraph: every edge with λ₃ ≥ k (one possibly
/// disconnected edge set; empty when no edge qualifies).
fn k_dense(truss: &Peeling, k: u32) -> Vec<u32> {
    (0..truss.cell_count() as u32)
        .filter(|&e| truss.lambda_of(e) >= k)
        .collect()
}

/// Classical connected k-trusses: the qualifying edges grouped by
/// *vertex* connectivity (two edges touch if they share an endpoint).
/// Returns edge-id groups, each sorted.
fn k_trusses_connected(g: &CsrGraph, truss: &Peeling, k: u32) -> Vec<Vec<u32>> {
    let edges = k_dense(truss, k);
    if edges.is_empty() {
        return vec![];
    }
    // Union endpoints of qualifying edges; group edges by their
    // endpoint component.
    let mut dsu = DisjointSets::new(g.n());
    for &e in &edges {
        let (u, v) = g.endpoints(e);
        dsu.union(u, v);
    }
    let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();
    for &e in &edges {
        let (u, _) = g.endpoints(e);
        groups.entry(dsu.find(u)).or_default().push(e);
    }
    let mut out: Vec<Vec<u32>> = groups.into_values().collect();
    for group in &mut out {
        group.sort_unstable();
    }
    out.sort_by_key(|grp| grp[0]);
    out
}

/// k-truss communities = k-(2,3) nuclei, straight from the hierarchy
/// (triangle connectivity). Returns edge-id groups, each sorted.
fn k_truss_communities(h: &Hierarchy, k: u32) -> Vec<Vec<u32>> {
    let mut out: Vec<Vec<u32>> = h
        .nuclei_at(k)
        .into_iter()
        .map(|id| {
            let mut cells = h.nucleus_cells(id);
            cells.sort_unstable();
            cells
        })
        .collect();
    out.sort_by_key(|grp| grp[0]);
    out
}

#[test]
fn bowtie_separates_the_three_definitions() {
    // Figure 3's point, on the bowtie: every edge has λ₃ = 1.
    let g = nucleus_hierarchy::gen::paper::fig3_bowtie();
    let es = EdgeSpace::new(&g);
    let truss = peel(&es);
    // k-dense: one (disconnected-agnostic) edge set with all 6 edges
    assert_eq!(k_dense(&truss, 1).len(), 6);
    // classical k-truss: vertex-connected → still ONE subgraph
    let trusses = k_trusses_connected(&g, &truss, 1);
    assert_eq!(trusses.len(), 1);
    assert_eq!(trusses[0].len(), 6);
    // k-truss community: triangle-connected → TWO communities
    let (h, _) = dft(&es, &truss);
    let communities = k_truss_communities(&h, 1);
    assert_eq!(communities.len(), 2);
    assert!(communities.iter().all(|c| c.len() == 3));
}

#[test]
fn disconnected_trusses_split_vertex_components() {
    // two disjoint K4s: k-dense is one set, k-truss finds two.
    let mut edges = vec![];
    for base in [0u32, 4] {
        for u in 0..4 {
            for v in u + 1..4 {
                edges.push((base + u, base + v));
            }
        }
    }
    let g = CsrGraph::from_edges(8, &edges);
    let es = EdgeSpace::new(&g);
    let truss = peel(&es);
    assert_eq!(k_dense(&truss, 2).len(), 12);
    assert_eq!(k_trusses_connected(&g, &truss, 2).len(), 2);
    let (h, _) = dft(&es, &truss);
    assert_eq!(k_truss_communities(&h, 2).len(), 2);
}

#[test]
fn communities_refine_trusses_which_refine_dense() {
    // On any graph: dense ⊇ union(trusses) with trusses a partition,
    // and communities refine trusses.
    let g = nucleus_hierarchy::gen::karate::karate_club();
    let es = EdgeSpace::new(&g);
    let truss = peel(&es);
    let (h, _) = dft(&es, &truss);
    for k in 1..=truss.max_lambda {
        let dense = k_dense(&truss, k);
        let trusses = k_trusses_connected(&g, &truss, k);
        let communities = k_truss_communities(&h, k);
        let truss_total: usize = trusses.iter().map(|t| t.len()).sum();
        let comm_total: usize = communities.iter().map(|c| c.len()).sum();
        assert_eq!(dense.len(), truss_total, "k={k}");
        assert_eq!(dense.len(), comm_total, "k={k}");
        assert!(communities.len() >= trusses.len(), "k={k}");
        // each community sits inside exactly one truss
        for c in &communities {
            let hits = trusses
                .iter()
                .filter(|t| c.iter().all(|e| t.binary_search(e).is_ok()))
                .count();
            assert_eq!(hits, 1, "k={k}");
        }
    }
}

#[test]
fn empty_levels_yield_empty_sets() {
    let g = nucleus_hierarchy::gen::classic::path(5);
    let es = EdgeSpace::new(&g);
    let truss = peel(&es);
    assert!(k_dense(&truss, 1).is_empty());
    assert!(k_trusses_connected(&g, &truss, 1).is_empty());
}

#[test]
fn truss_variants_are_consistent_on_surrogates() {
    let g = dataset("texas84-s", Scale::Small);
    let es = EdgeSpace::new(&g);
    let truss = peel(&es);
    let d = decompose(&g, Kind::Truss, Algorithm::Dft).unwrap();
    for k in [1, 2, truss.max_lambda.max(1)] {
        let dense = k_dense(&truss, k);
        let trusses = k_trusses_connected(&g, &truss, k);
        let comms = k_truss_communities(&d.hierarchy, k);
        assert_eq!(dense.len(), trusses.iter().map(|t| t.len()).sum::<usize>());
        assert_eq!(dense.len(), comms.iter().map(|c| c.len()).sum::<usize>());
        assert!(comms.len() >= trusses.len());
    }
}
