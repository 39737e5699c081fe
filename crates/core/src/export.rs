//! Hierarchy export: GraphViz DOT (the visualization use case of
//! Alvarez-Hamelin et al. / Zhao & Tung cited in §3).

use std::fmt::Write as _;

use crate::hierarchy::Hierarchy;

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
}
