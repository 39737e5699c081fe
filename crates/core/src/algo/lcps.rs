//! LCPS — Level Component Priority Search (Matula & Beck 1983),
//! adapted as in §5.1 of the paper: the "appropriate priority queue" the
//! original authors found hard to maintain is realized with a max-bucket
//! structure, and the interspersed-brackets output becomes hierarchy
//! nodes directly. k-core (1,2) only.

use std::sync::Arc;

use nucleus_graph::bucket::MaxBuckets;
use nucleus_graph::CsrGraph;

use crate::hierarchy::{Hierarchy, RawHierarchy, NO_NODE};
use crate::peel::Peeling;

/// Runs the LCPS traversal over the core-peeled graph and returns the
/// canonical (1,2) hierarchy.
///
/// Invariant exploited (Matula–Beck): once any vertex of a connected
/// λ ≥ k region enters the priority queue, the entire region is popped
/// before the maximum priority drops below k — so consecutive pops at
/// the same level always belong to the same sub-core, and level changes
/// translate into descending into a new child node (λ rose) or climbing
/// toward the root, inserting a node for a previously unseen level
/// (λ fell).
///
/// ```
/// use nucleus_core::algo::lcps::lcps;
/// use nucleus_core::peel::peel;
/// use nucleus_core::space::VertexSpace;
///
/// let g = nucleus_gen::classic::lollipop(5, 3); // K5 with a tail
/// let p = peel(&VertexSpace::new(&g));
/// let h = lcps(&g, &p);
/// assert_eq!(h.max_lambda(), 4);
/// assert_eq!(h.nuclei_at(4).len(), 1);
/// ```
pub fn lcps(g: &CsrGraph, peeling: &Peeling) -> Hierarchy {
    let n = g.n();
    let mut raw = RawHierarchy::new(n);
    let mut visited = vec![false; n];
    let mut pq = MaxBuckets::new(peeling.max_lambda);

    for start in 0..n as u32 {
        if visited[start as usize] {
            continue;
        }
        visited[start as usize] = true;
        pq.push(start, peeling.lambda_of(start));
        // Current node in this component's hierarchy path.
        let mut cur = NO_NODE;
        while let Some((v, k)) = pq.pop_max() {
            cur = place(&mut raw, cur, k);
            raw.owner[v as usize] = cur;
            for &w in g.neighbors(v) {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    pq.push(w, peeling.lambda_of(w));
                }
            }
        }
    }
    raw.into_hierarchy(1, 2, Arc::clone(&peeling.lambda), peeling.max_lambda)
}

/// Places a vertex with λ = k relative to the current node, creating or
/// climbing hierarchy nodes as the level changes. Returns the node the
/// vertex belongs to, the new current node.
fn place(raw: &mut RawHierarchy, mut cur: u32, k: u32) -> u32 {
    if k == 0 {
        // isolated vertex: belongs to the root directly
        debug_assert_eq!(cur, NO_NODE);
        return cur;
    }
    if cur == NO_NODE {
        return raw.push(k, NO_NODE);
    }
    let cur_lambda = raw.nodes[cur as usize].lambda;
    if k == cur_lambda {
        return cur;
    }
    if k > cur_lambda {
        // descend into a deeper (new) nucleus
        return raw.push(k, cur);
    }
    // λ fell: climb to the hierarchy position of level k.
    loop {
        let parent = raw.nodes[cur as usize].parent;
        if parent == NO_NODE || raw.nodes[parent as usize].lambda < k {
            break;
        }
        cur = parent;
    }
    let cur_lambda = raw.nodes[cur as usize].lambda;
    if cur_lambda == k {
        cur
    } else {
        // First vertex seen at level k on this path: splice a node
        // between `cur` (λ > k) and its parent (λ < k or root).
        debug_assert!(cur_lambda > k);
        let parent = raw.nodes[cur as usize].parent;
        let node = raw.push(k, parent);
        raw.nodes[cur as usize].parent = node;
        node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::dft::dft;
    use crate::peel::peel;
    use crate::space::VertexSpace;
    use crate::test_graphs;

    fn check_matches_dft(g: &CsrGraph) {
        let vs = VertexSpace::new(g);
        let p = peel(&vs);
        let h_lcps = lcps(g, &p);
        h_lcps.validate().expect("valid LCPS hierarchy");
        let (h_dft, _) = dft(&vs, &p);
        assert_eq!(h_lcps, h_dft);
    }

    #[test]
    fn matches_dft_on_structured_graphs() {
        check_matches_dft(&test_graphs::nested_cores());
        check_matches_dft(&nucleus_gen::paper::fig2_two_three_cores());
        check_matches_dft(&nucleus_gen::paper::fig4_chained_towers().0);
        check_matches_dft(&nucleus_gen::karate::karate_club());
        check_matches_dft(&nucleus_gen::classic::star(5));
        check_matches_dft(&nucleus_gen::classic::barbell(5, 3));
    }

    #[test]
    fn handles_disconnected_graphs() {
        let g = CsrGraph::from_edges(9, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        // two triangles + isolated vertices 6,7,8
        let vs = VertexSpace::new(&g);
        let p = peel(&vs);
        let h = lcps(&g, &p);
        h.validate().expect("valid");
        assert_eq!(h.nuclei_at(2).len(), 2);
        assert_eq!(h.node(Hierarchy::ROOT).cells.len(), 3);
        check_matches_dft(&g);
    }

    #[test]
    fn level_jumps_insert_intermediate_nodes() {
        // K5 hanging off a path: popping starts in the K5 (λ=4), then the
        // path (λ=1) forces a climb past a level never seen before.
        let g = nucleus_gen::classic::lollipop(5, 4);
        check_matches_dft(&g);
        let vs = VertexSpace::new(&g);
        let p = peel(&vs);
        let h = lcps(&g, &p);
        assert_eq!(h.depth(), 2);
        assert_eq!(h.nuclei_at(1).len(), 1);
        assert_eq!(h.nuclei_at(4).len(), 1);
    }
}
