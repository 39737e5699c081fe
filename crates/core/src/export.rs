//! Hierarchy export: GraphViz DOT (the visualization use case of
//! Alvarez-Hamelin et al. / Zhao & Tung cited in §3) and nucleus
//! subgraph extraction for downstream processing.

use std::fmt::Write as _;

use nucleus_graph::CsrGraph;

use crate::hierarchy::Hierarchy;
use crate::report::nucleus_vertices;
use crate::space::PeelSpace;

/// Renders the hierarchy as a GraphViz DOT tree. Each node is labeled
/// `k=λ (members)`; node area hints at subtree size. Limits output to
/// `max_nodes` nodes (breadth-first from the root) to keep plots usable.
pub fn hierarchy_to_dot(h: &Hierarchy, max_nodes: usize) -> String {
    let mut out =
        String::from("digraph nuclei {\n  rankdir=TB;\n  node [shape=box, style=rounded];\n");
    let mut queue = vec![Hierarchy::ROOT];
    let mut head = 0usize;
    let mut included = Vec::new();
    while head < queue.len() && included.len() < max_nodes {
        let id = queue[head];
        head += 1;
        included.push(id);
        queue.extend_from_slice(h.node(id).children);
    }
    for &id in &included {
        let node = h.node(id);
        let label = if id == Hierarchy::ROOT {
            format!("root ({} cells)", node.subtree_cells)
        } else {
            format!("k={} ({} cells)", node.lambda, node.subtree_cells)
        };
        let _ = writeln!(out, "  n{id} [label=\"{label}\"];");
    }
    for &id in &included {
        for &c in h.node(id).children {
            if included.contains(&c) {
                let _ = writeln!(out, "  n{id} -> n{c};");
            }
        }
    }
    let truncated = h.len() - included.len();
    if truncated > 0 {
        let _ = writeln!(
            out,
            "  trunc [label=\"… {truncated} more nuclei\", style=dashed];"
        );
    }
    out.push_str("}\n");
    out
}

/// An extracted nucleus as a standalone graph: vertices are re-labeled
/// densely; `original` maps new ids back to the source graph.
#[derive(Clone, Debug)]
pub struct ExtractedSubgraph {
    /// The induced subgraph on the nucleus's vertex span.
    pub graph: CsrGraph,
    /// `original[new_id] = old_id`.
    pub original: Vec<u32>,
}

/// Extracts the subgraph induced by the vertices spanned by the nucleus
/// rooted at `node`.
pub fn extract_nucleus<S: PeelSpace>(
    g: &CsrGraph,
    space: &S,
    h: &Hierarchy,
    node: u32,
) -> ExtractedSubgraph {
    let verts = nucleus_vertices(space, h, node);
    let mut new_id = vec![u32::MAX; g.n()];
    for (i, &v) in verts.iter().enumerate() {
        new_id[v as usize] = i as u32;
    }
    let mut edges = Vec::new();
    for &v in &verts {
        for &w in g.neighbors(v) {
            if v < w && new_id[w as usize] != u32::MAX {
                edges.push((new_id[v as usize], new_id[w as usize]));
            }
        }
    }
    ExtractedSubgraph {
        graph: CsrGraph::from_edges(verts.len(), &edges),
        original: verts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::dft::dft;
    use crate::peel::peel;
    use crate::space::VertexSpace;
    use crate::test_graphs;

    #[test]
    fn dot_contains_all_levels() {
        let g = test_graphs::nested_cores();
        let vs = VertexSpace::new(&g);
        let p = peel(&vs);
        let (h, _) = dft(&vs, &p);
        let dot = hierarchy_to_dot(&h, 100);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("k=4"));
        assert!(dot.contains("->"));
        assert!(!dot.contains("more nuclei"));
    }

    #[test]
    fn dot_truncates() {
        let g = test_graphs::nested_cores();
        let vs = VertexSpace::new(&g);
        let p = peel(&vs);
        let (h, _) = dft(&vs, &p);
        let dot = hierarchy_to_dot(&h, 1);
        assert!(dot.contains("more nuclei"));
    }

    #[test]
    fn extracted_nucleus_is_the_k5() {
        let g = test_graphs::nested_cores();
        let vs = VertexSpace::new(&g);
        let p = peel(&vs);
        let (h, _) = dft(&vs, &p);
        let deep = h.nuclei_at(4)[0];
        let sub = extract_nucleus(&g, &vs, &h, deep);
        assert_eq!(sub.graph.n(), 5);
        assert_eq!(sub.graph.m(), 10); // K5
        assert_eq!(sub.original.len(), 5);
        // mapping points at real vertices of the original K5 (ids 0..5)
        assert!(sub.original.iter().all(|&v| v < 5));
    }

    #[test]
    fn extraction_of_root_returns_whole_graph() {
        let g = test_graphs::nested_cores();
        let vs = VertexSpace::new(&g);
        let p = peel(&vs);
        let (h, _) = dft(&vs, &p);
        let sub = extract_nucleus(&g, &vs, &h, Hierarchy::ROOT);
        assert_eq!(sub.graph.n(), g.n());
        assert_eq!(sub.graph.m(), g.m());
    }
}
