//! The Naive baseline (Algorithms 2 and 3): one full traversal of the
//! λ ≥ k cells **per k level**. This is the straightforward reading of
//! Corollary 2 and the baseline every speedup in Tables 1/4/5 is
//! measured against. Deliberately kept per-level (its cost is the point)
//! while still producing the exact canonical hierarchy.

use std::sync::Arc;

use crate::hierarchy::{Hierarchy, RawHierarchy, NO_NODE};
use crate::peel::Peeling;
use crate::space::PeelSpace;

/// Runs the per-level traversal and assembles the hierarchy.
///
/// Level `k` labels the connected components of cells with λ ≥ k (via
/// containers whose minimum λ is ≥ k) and emits one node per component
/// containing at least one λ = k cell; parents are the level-(k-1)
/// components. Components without λ = k cells coincide with their unique
/// deeper nucleus and are passed through, matching the contraction used
/// by all other algorithms.
pub fn naive<S: PeelSpace>(space: &S, peeling: &Peeling) -> Hierarchy {
    let n = space.cell_count();
    let max_lambda = peeling.max_lambda;
    // The peeling order is sorted by λ; the suffix starting at
    // `first_ge[k]` holds exactly the cells with λ ≥ k.
    let mut first_ge = vec![0usize; max_lambda as usize + 2];
    {
        let mut i = 0usize;
        for k in 0..=max_lambda {
            while i < peeling.order.len() && peeling.lambda_of(peeling.order[i]) < k {
                i += 1;
            }
            first_ge[k as usize] = i;
        }
        first_ge[max_lambda as usize + 1] = peeling.order.len();
    }

    let mut raw = RawHierarchy::new(n);
    let mut label = vec![NO_NODE; n];
    let mut label_prev = vec![NO_NODE; n];
    // Per level-component: the hierarchy node it maps to (its own node,
    // or — for delta-free components — the inherited ancestor node).
    let mut emitted_cur: Vec<u32> = Vec::new();
    let mut emitted_prev: Vec<u32> = Vec::new();
    let mut queue: Vec<u32> = Vec::new();

    for k in 1..=max_lambda {
        emitted_cur.clear();
        let suffix = &peeling.order[first_ge[k as usize]..];
        for &c in suffix {
            label[c as usize] = NO_NODE;
        }
        let mut comp_count = 0u32;
        for &c0 in suffix {
            if label[c0 as usize] != NO_NODE {
                continue;
            }
            let comp = comp_count;
            comp_count += 1;
            label[c0 as usize] = comp;
            queue.clear();
            queue.push(c0);
            let parent = if k == 1 {
                NO_NODE
            } else {
                emitted_prev[label_prev[c0 as usize] as usize]
            };
            // The component's own node, made at its first λ = k cell.
            let mut node = None;
            let mut head = 0usize;
            while head < queue.len() {
                let x = queue[head];
                head += 1;
                if peeling.lambda_of(x) == k {
                    let id = *node.get_or_insert_with(|| raw.push(k, parent));
                    raw.owner[x as usize] = id;
                }
                space.for_each_container(x, |others| {
                    if others.iter().any(|&v| peeling.lambda_of(v) < k) {
                        return;
                    }
                    for &v in others {
                        if label[v as usize] == NO_NODE {
                            label[v as usize] = comp;
                            queue.push(v);
                        }
                    }
                });
            }
            // A component with no λ = k cell is the same set as its one
            // component at level k + 1, so it passes its parent on.
            emitted_cur.push(node.unwrap_or(parent));
        }
        std::mem::swap(&mut label, &mut label_prev);
        std::mem::swap(&mut emitted_cur, &mut emitted_prev);
    }

    raw.into_hierarchy(
        space.r(),
        space.s(),
        Arc::clone(&peeling.lambda),
        max_lambda,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peel::peel;
    use crate::space::{EdgeSpace, TriangleSpace, VertexSpace};
    use crate::test_graphs;

    #[test]
    fn nested_cores_shape() {
        let g = test_graphs::nested_cores();
        let vs = VertexSpace::new(&g);
        let p = peel(&vs);
        let h = naive(&vs, &p);
        h.validate().expect("valid");
        assert_eq!(h.depth(), 3);
        assert_eq!(h.nuclei_at(4).len(), 1);
    }

    #[test]
    fn matches_dft_on_paper_graphs() {
        for g in [
            nucleus_gen::paper::fig2_two_three_cores(),
            nucleus_gen::paper::fig3_bowtie(),
            nucleus_gen::paper::fig4_chained_towers().0,
            nucleus_gen::karate::karate_club(),
        ] {
            let vs = VertexSpace::new(&g);
            let p = peel(&vs);
            let h1 = naive(&vs, &p);
            let (h2, _) = crate::algo::dft::dft(&vs, &p);
            assert_eq!(h1, h2, "(1,2) mismatch");

            let es = EdgeSpace::new(&g);
            let p = peel(&es);
            let h1 = naive(&es, &p);
            let (h2, _) = crate::algo::dft::dft(&es, &p);
            assert_eq!(h1, h2, "(2,3) mismatch");

            let ts = TriangleSpace::new(&g);
            let p = peel(&ts);
            let h1 = naive(&ts, &p);
            let (h2, _) = crate::algo::dft::dft(&ts, &p);
            assert_eq!(h1, h2, "(3,4) mismatch");
        }
    }

    #[test]
    fn empty_graph() {
        let g = nucleus_graph::CsrGraph::from_edges(3, &[]);
        let vs = VertexSpace::new(&g);
        let p = peel(&vs);
        let h = naive(&vs, &p);
        h.validate().expect("valid");
        assert_eq!(h.nucleus_count(), 0);
        assert_eq!(h.node(0).cells.len(), 3);
    }
}
