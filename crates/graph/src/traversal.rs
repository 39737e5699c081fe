//! Connected components.

use crate::csr::CsrGraph;

/// Connected-component labeling.
///
/// Returns `(labels, count)` where `labels[v]` is a dense component id in
/// `0..count`. Components are numbered in order of their smallest vertex.
pub fn connected_components(g: &CsrGraph) -> (Vec<u32>, usize) {
    let n = g.n();
    let mut labels = vec![u32::MAX; n];
    let mut queue: Vec<u32> = Vec::new();
    let mut next = 0u32;
    for start in 0..n as u32 {
        if labels[start as usize] != u32::MAX {
            continue;
        }
        labels[start as usize] = next;
        queue.clear();
        queue.push(start);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            for &w in g.neighbors(v) {
                if labels[w as usize] == u32::MAX {
                    labels[w as usize] = next;
                    queue.push(w);
                }
            }
        }
        next += 1;
    }
    (labels, next as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_of_disconnected_graph() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3); // {0,1,2}, {3,4}, {5}
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[3], labels[5]);
    }

    #[test]
    fn components_numbered_by_smallest_vertex() {
        let g = CsrGraph::from_edges(4, &[(2, 3)]);
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(labels[0], 0);
        assert_eq!(labels[1], 1);
        assert_eq!(labels[2], 2);
    }

    #[test]
    fn empty_graph_has_zero_components() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(connected_components(&g).1, 0);
    }
}
