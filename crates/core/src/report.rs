//! Human-readable views of a hierarchy: text trees and per-nucleus
//! summaries (sizes, vertex sets, densities).

use nucleus_graph::CsrGraph;

use crate::decompose::Decomposition;
use crate::hierarchy::Hierarchy;
use crate::space::PeelSpace;

/// Summary of one nucleus for reporting.
#[derive(Clone, Debug)]
pub struct NucleusSummary {
    /// Hierarchy node id.
    pub node: u32,
    /// k of the nucleus.
    pub lambda: u32,
    /// Number of member cells (subtree).
    pub cells: u64,
    /// Number of distinct vertices spanned by the member cells.
    pub vertices: usize,
    /// Edge density `2e / (n (n - 1))` of the induced subgraph (0 below
    /// two vertices).
    pub density: f64,
}

/// Distinct vertices spanned by the member cells of `node`, read off its
/// run in place.
pub fn nucleus_vertices<S: PeelSpace>(space: &S, h: &Hierarchy, node: u32) -> Vec<u32> {
    let mut out = Vec::new();
    for &cell in h.nucleus_cells_slice(node) {
        space.cell_vertices(cell, &mut out);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Builds a [`NucleusSummary`] for `node`, whatever its size. The
/// density is [`CsrGraph::induced_density`] of the nucleus's vertex
/// set V: an induced-edge count, O(Σ_{v ∈ V} min(deg v, |V|) · log).
pub fn summarize_nucleus<S: PeelSpace>(
    g: &CsrGraph,
    space: &S,
    h: &Hierarchy,
    node: u32,
) -> NucleusSummary {
    let verts = nucleus_vertices(space, h, node);
    NucleusSummary {
        node,
        lambda: h.node(node).lambda,
        cells: h.node(node).subtree_cells,
        vertices: verts.len(),
        density: g.induced_density(&verts),
    }
}

/// Renders the hierarchy as an indented text tree (children in canonical
/// order), up to `max_depth` levels and `max_children` children per node.
pub fn render_tree(h: &Hierarchy, max_depth: usize, max_children: usize) -> String {
    let mut out = String::new();
    fn rec(
        h: &Hierarchy,
        id: u32,
        depth: usize,
        max_depth: usize,
        max_children: usize,
        out: &mut String,
    ) {
        let node = h.node(id);
        let indent = "  ".repeat(depth);
        if id == Hierarchy::ROOT {
            out.push_str(&format!(
                "root: {} cells, {} nuclei, max λ = {}\n",
                node.subtree_cells,
                h.nucleus_count(),
                h.max_lambda()
            ));
        } else {
            out.push_str(&format!(
                "{indent}λ={} | {} cells ({} delta)\n",
                node.lambda,
                node.subtree_cells,
                node.cells.len()
            ));
        }
        if depth >= max_depth {
            if !node.children.is_empty() {
                out.push_str(&format!("{indent}  … {} children\n", node.children.len()));
            }
            return;
        }
        for (i, &c) in node.children.iter().enumerate() {
            if i >= max_children {
                out.push_str(&format!(
                    "{indent}  … {} more children\n",
                    node.children.len() - max_children
                ));
                break;
            }
            rec(h, c, depth + 1, max_depth, max_children, out);
        }
    }
    rec(h, Hierarchy::ROOT, 0, max_depth, max_children, &mut out);
    out
}

/// One-line description of a finished decomposition (for examples/CLI).
/// The bracketed tag is the *resolved* backend, e.g. `[materialized]`.
pub fn describe(d: &Decomposition) -> String {
    format!(
        "{} {} [{}] | {} cells, {} nuclei, max λ = {}, depth {} | peel {:?} + post {:?}",
        d.kind,
        d.algorithm,
        d.backend,
        d.peeling.cell_count(),
        d.hierarchy.nucleus_count(),
        d.hierarchy.max_lambda(),
        d.hierarchy.depth(),
        d.times.peel,
        d.times.post,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::{decompose, Algorithm, Kind};
    use crate::peel::peel;
    use crate::space::VertexSpace;
    use crate::test_graphs;

    #[test]
    fn vertices_and_density_of_clique_nucleus() {
        let g = test_graphs::nested_cores();
        let vs = VertexSpace::new(&g);
        let p = peel(&vs);
        let (h, _) = crate::algo::dft::dft(&vs, &p);
        // deepest nucleus is the K5
        let deep = h.nuclei_at(4)[0];
        let verts = nucleus_vertices(&vs, &h, deep);
        assert_eq!(verts.len(), 5);
        let s = summarize_nucleus(&g, &vs, &h, deep);
        assert_eq!(s.vertices, 5);
        assert!((s.density - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tree_rendering_contains_levels() {
        let g = test_graphs::nested_cores();
        let d = decompose(&g, Kind::Core, Algorithm::Dft).unwrap();
        let tree = render_tree(&d.hierarchy, 10, 10);
        assert!(tree.contains("root:"));
        assert!(tree.contains("λ=4"));
        let line = describe(&d);
        assert!(line.contains("DFT"));
    }

    #[test]
    fn describe_tags_all_five_kinds() {
        // the one-line description leads with the (r,s) tag for every
        // family, including the session-era (1,3) and (2,4) ones
        let g = test_graphs::nested_cores();
        for kind in Kind::all() {
            let d = decompose(&g, kind, Algorithm::Fnd).unwrap();
            let (r, s) = kind.rs();
            let line = describe(&d);
            assert!(line.starts_with(&format!("({r},{s})")), "{kind}: {line}");
            assert!(line.contains("FND"), "{kind}: {line}");
        }
    }

    #[test]
    fn tree_rendering_truncates() {
        let g = test_graphs::nested_cores();
        let d = decompose(&g, Kind::Core, Algorithm::Dft).unwrap();
        let tree = render_tree(&d.hierarchy, 0, 0);
        assert!(tree.contains("children"));
    }
}
