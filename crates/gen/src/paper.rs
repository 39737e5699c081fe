//! The illustrative graphs used by the paper's figures, reconstructed
//! for the test suite. Where a figure does not fully specify its graph,
//! we build the smallest graph exhibiting the property the figure
//! illustrates (documented per function).

use nucleus_graph::CsrGraph;

/// Figure 2: a graph whose 2-core contains **two distinct 3-cores**,
/// indistinguishable from λ values alone.
///
/// Construction: two K4s (vertices 0–3 and 4–7) joined through the
/// path 3–8–9–4. Path vertices have degree 2 and λ₂ = 2, K4 vertices
/// have λ₂ = 3; the whole (connected) graph is the single 2-core and
/// the K4s are the two 3-cores inside it.
pub fn fig2_two_three_cores() -> CsrGraph {
    let mut edges = vec![];
    for base in [0u32, 4u32] {
        for u in 0..4 {
            for v in u + 1..4 {
                edges.push((base + u, base + v));
            }
        }
    }
    edges.extend([(3, 8), (8, 9), (9, 4)]);
    CsrGraph::from_edges(10, &edges)
}

/// Figure 3's point: connectivity semantics split k-truss variants.
/// The *bowtie* (two triangles sharing one vertex) is one connected
/// subgraph where every edge lies in ≥ 1 triangle — a single classical
/// k-truss / k-dense — but its two triangles are **not**
/// triangle-connected, so it contains **two** (2,3)-nuclei (k-truss
/// communities) at λ₃ = 1.
pub fn fig3_bowtie() -> CsrGraph {
    CsrGraph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
}

/// Figure 4: sub-(1,2)-nuclei (T₁,₂) of equal λ that belong to the same
/// k-core without being adjacent. Three K4 "towers" F, D, G (λ = 3)
/// are chained by degree-2 "bridges" A (between F and D) and E (between
/// D and G); bridges have λ = 2. A and E are distinct T₁,₂s in the same
/// 2-core, separated by higher-λ regions — the case the hierarchy
/// algorithms must resolve.
///
/// Returns `(graph, [f, d, g, a, e])` where the array holds one
/// representative vertex per region.
pub fn fig4_chained_towers() -> (CsrGraph, [u32; 5]) {
    let mut edges = vec![];
    // K4 towers at bases 0, 4, 8.
    for base in [0u32, 4, 8] {
        for u in 0..4 {
            for v in u + 1..4 {
                edges.push((base + u, base + v));
            }
        }
    }
    // Bridge A: vertices 12, 13 linking tower F (0..4) and tower D
    // (4..8); bridge vertices have degree exactly 2, so λ₂ = 2.
    edges.extend([(0, 12), (12, 13), (13, 4)]);
    // Bridge E: vertices 14, 15 linking tower D (4..8) and tower G (8..12).
    edges.extend([(6, 14), (14, 15), (15, 8)]);
    (CsrGraph::from_edges(16, &edges), [0, 4, 8, 12, 14])
}

/// A small graph with a 3-level (1,2) hierarchy: K5 inside a 2-core ring
/// inside a whole-graph root with a pendant vertex. Handy for asserting
/// exact hierarchy shapes in tests.
///
/// Layout: vertices 0–4 form K5 (λ=4); vertices 5–8 form a cycle attached
/// to the K5 at 0 and 1 (λ=2); vertex 9 hangs off vertex 5 (λ=1).
pub fn three_level_core_hierarchy() -> CsrGraph {
    let mut edges = vec![];
    for u in 0..5u32 {
        for v in u + 1..5 {
            edges.push((u, v));
        }
    }
    // cycle 0-5-6-7-8-1 closing through K5 edge (0,1)
    edges.extend([(0, 5), (5, 6), (6, 7), (7, 8), (8, 1)]);
    // pendant
    edges.push((5, 9));
    CsrGraph::from_edges(10, &edges)
}

/// Figure 1-style example: a graph where triangle-based and
/// four-clique-based nuclei disagree. An octahedron (K_{2,2,2}: every
/// edge in exactly 2 triangles, **zero** K4s) shares the edge {0, 1}
/// with a K5 (every triangle in 2 K4s). The (2,3) decomposition keeps
/// both halves in dense nuclei; the (3,4) decomposition gives the
/// octahedron's triangles λ₄ = 0 and only the K5 survives.
///
/// Octahedron vertices: 0–5 with antipodal (non-adjacent) pairs
/// (0,3), (1,4), (2,5). K5 vertices: {0, 1, 6, 7, 8}.
pub fn fig1_nucleus_contrast() -> CsrGraph {
    let mut edges = vec![];
    for u in 0..6u32 {
        for v in u + 1..6 {
            if !matches!((u, v), (0, 3) | (1, 4) | (2, 5)) {
                edges.push((u, v));
            }
        }
    }
    let k5 = [0u32, 1, 6, 7, 8];
    for i in 0..5 {
        for j in i + 1..5 {
            if (k5[i], k5[j]) != (0, 1) {
                edges.push((k5[i], k5[j]));
            }
        }
    }
    CsrGraph::from_edges(9, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nucleus_graph::order::degeneracy_order;

    #[test]
    fn fig2_every_vertex_in_two_core() {
        let g = fig2_two_three_cores();
        // min degree 2 overall; two K4s present
        assert!(g.vertices().all(|v| g.degree(v) >= 2));
        let (_, d) = degeneracy_order(&g);
        assert_eq!(d, 3);
    }

    #[test]
    fn fig3_bowtie_shape() {
        let g = fig3_bowtie();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 6);
        assert_eq!(g.degree(2), 4);
    }

    #[test]
    fn fig4_regions_have_expected_degrees() {
        let (g, reps) = fig4_chained_towers();
        assert_eq!(g.n(), 16);
        for tower_rep in &reps[..3] {
            assert!(g.degree(*tower_rep) >= 3);
        }
        for bridge_rep in &reps[3..] {
            assert_eq!(g.degree(*bridge_rep), 2);
        }
    }

    #[test]
    fn three_level_shape() {
        let g = three_level_core_hierarchy();
        assert_eq!(g.n(), 10);
        let (_, d) = degeneracy_order(&g);
        assert_eq!(d, 4);
        assert_eq!(g.degree(9), 1);
    }

    #[test]
    fn fig1_octahedron_half_is_k4_free() {
        let g = fig1_nucleus_contrast();
        assert_eq!(g.n(), 9);
        // octahedron contributes 12 edges, K5 contributes 10 but shares (0,1)
        assert_eq!(g.m(), 12 + 9);
        // antipodal pairs are non-adjacent
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(1, 4));
        assert!(!g.has_edge(2, 5));
        // a pure-octahedron 4-set is never a K4
        for quad in [[0u32, 1, 2, 4], [2, 3, 4, 5], [0, 2, 4, 5]] {
            let mut complete = true;
            for i in 0..4 {
                for j in i + 1..4 {
                    let (a, b) = (quad[i].min(quad[j]), quad[i].max(quad[j]));
                    complete &= g.has_edge(a, b);
                }
            }
            assert!(!complete, "octahedron quad {quad:?} must not be a K4");
        }
    }
}
