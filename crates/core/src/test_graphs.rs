//! Shared fixtures for this crate's unit tests.

use nucleus_graph::CsrGraph;

/// K5 (λ₂ = 4) ⊂ 2-core ring ⊂ whole graph, plus a pendant (λ₂ = 1):
/// a three-level (1,2) hierarchy. Mirrors
/// `nucleus_gen::paper::three_level_core_hierarchy` without the dev-dep
/// cycle.
pub fn nested_cores() -> CsrGraph {
    let mut edges = vec![];
    for u in 0..5u32 {
        for v in u + 1..5 {
            edges.push((u, v));
        }
    }
    edges.extend([(0, 5), (5, 6), (6, 7), (7, 8), (8, 1), (5, 9)]);
    CsrGraph::from_edges(10, &edges)
}
