//! Weighted k-core decomposition — the Giatsidis-style adaptation the
//! paper surveys in §3.1, *including* the step those adaptations
//! overlooked: finding the **connected** weighted cores and their
//! hierarchy, not just the weighted λ values.
//!
//! A vertex's weighted degree is the sum of its integer edge weights;
//! the weighted core number `λʷ(v)` is the largest `k` such that `v`
//! belongs to a (connected) subgraph where every vertex has weighted
//! degree ≥ k within the subgraph.
//!
//! Because weights make the ω values drop by arbitrary amounts (not 1),
//! the bucket queue of the unweighted peeling does not apply; peeling
//! uses a lazy-deletion binary heap instead. The hierarchy is the one
//! [`crate::algo::naive::naive`] builds over the plain (1,2) space from
//! the rank-compressed λ: per-level components, correct for any λ
//! assignment, weighted included.

use std::collections::BinaryHeap;
use std::sync::Arc;

use nucleus_graph::CsrGraph;

use crate::algo::naive::naive;
use crate::hierarchy::Hierarchy;
use crate::peel::Peeling;
use crate::space::VertexSpace;

/// Computes weighted core numbers. `weights[e]` is the (non-negative)
/// weight of edge id `e`.
///
/// # Panics
/// Panics if `weights.len() != g.m()`.
pub fn weighted_core_numbers(g: &CsrGraph, weights: &[u64]) -> Vec<u64> {
    assert_eq!(weights.len(), g.m(), "one weight per edge");
    let n = g.n();
    let mut wdeg: Vec<u64> = vec![0; n];
    for (e, u, v) in g.edges() {
        wdeg[u as usize] += weights[e as usize];
        wdeg[v as usize] += weights[e as usize];
    }
    let mut lambda = vec![0u64; n];
    let mut done = vec![false; n];
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = (0..n as u32)
        .map(|v| std::cmp::Reverse((wdeg[v as usize], v)))
        .collect();
    let mut floor = 0u64;
    while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
        if done[v as usize] || d != wdeg[v as usize] {
            continue; // stale heap entry
        }
        done[v as usize] = true;
        floor = floor.max(d);
        lambda[v as usize] = floor;
        for (w, e) in g.arcs(v) {
            if !done[w as usize] {
                let wt = weights[e as usize];
                let nd = wdeg[w as usize].saturating_sub(wt);
                // never drop below the current floor: the vertex is
                // already guaranteed a core of that strength
                wdeg[w as usize] = nd.max(floor.min(wdeg[w as usize]));
                heap.push(std::cmp::Reverse((wdeg[w as usize], w)));
            }
        }
    }
    lambda
}

/// Builds the full **connected** weighted-core hierarchy: per level,
/// nuclei are components of `{v : λʷ(v) ≥ k}` connected through such
/// vertices. Levels are the distinct λʷ values (weights make dense
/// 1..max iteration pointless).
///
/// λ values are compressed to dense ranks so the canonical [`Hierarchy`]
/// (which stores `u32` levels) applies; `levels[rank]` maps back.
pub struct WeightedCoreDecomposition {
    /// The canonical hierarchy over *rank* levels.
    pub hierarchy: Hierarchy,
    /// Weighted core number per vertex.
    pub lambda: Vec<u64>,
    /// `levels[rank - 1]` = actual weighted threshold of rank `rank`.
    pub levels: Vec<u64>,
}

impl WeightedCoreDecomposition {
    /// The real weighted threshold of a hierarchy node.
    pub fn threshold(&self, node: u32) -> u64 {
        let rank = self.hierarchy.node(node).lambda;
        if rank == 0 {
            0
        } else {
            self.levels[rank as usize - 1]
        }
    }
}

/// Runs the weighted decomposition (λʷ + connected hierarchy).
pub fn weighted_core_decomposition(g: &CsrGraph, weights: &[u64]) -> WeightedCoreDecomposition {
    let lambda = weighted_core_numbers(g, weights);
    // Compress distinct positive λ values to dense ranks 1..=L.
    let mut levels: Vec<u64> = lambda.iter().copied().filter(|&l| l > 0).collect();
    levels.sort_unstable();
    levels.dedup();
    let rank_of = |l: u64| -> u32 {
        if l == 0 {
            0
        } else {
            (levels.binary_search(&l).expect("present") + 1) as u32
        }
    };
    let ranks: Arc<[u32]> = lambda.iter().map(|&l| rank_of(l)).collect();

    // The hierarchy is Naive's per-level components over the ranks,
    // which is correct for any λ assignment. Its order only has to be
    // sorted by λ.
    let mut order: Vec<u32> = (0..g.n() as u32).collect();
    order.sort_by_key(|&v| ranks[v as usize]);
    let peeling = Peeling {
        lambda: ranks,
        max_lambda: levels.len() as u32,
        order,
    };
    let hierarchy = naive(&VertexSpace::new(g), &peeling);
    WeightedCoreDecomposition {
        hierarchy,
        lambda,
        levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::{decompose, Algorithm, Kind};

    #[test]
    fn unit_weights_reduce_to_plain_cores() {
        let g = crate::test_graphs::nested_cores();
        let weights = vec![1u64; g.m()];
        let wl = weighted_core_numbers(&g, &weights);
        let plain = decompose(&g, Kind::Core, Algorithm::Dft).unwrap();
        let expect: Vec<u64> = plain.peeling.lambda.iter().map(|&l| l as u64).collect();
        assert_eq!(wl, expect);
        // The hierarchy matches structurally; levels are rank-compressed
        // (λ values {1,2,4} become ranks {1,2,3}), so compare through the
        // threshold mapping.
        let wd = weighted_core_decomposition(&g, &weights);
        wd.hierarchy.validate().expect("valid");
        assert_eq!(wd.hierarchy.len(), plain.hierarchy.len());
        for (id, (wn, pn)) in wd
            .hierarchy
            .nodes()
            .zip(plain.hierarchy.nodes())
            .enumerate()
            .skip(1)
        {
            assert_eq!(wn.cells, pn.cells, "node {id}");
            assert_eq!(wn.parent, pn.parent, "node {id}");
            assert_eq!(wd.threshold(id as u32), pn.lambda as u64, "node {id}");
        }
    }

    #[test]
    fn heavy_edge_dominates() {
        // path 0-1-2; edge (0,1) has weight 10, edge (1,2) weight 1.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let e01 = g.edge_id(0, 1).unwrap() as usize;
        let mut weights = vec![1u64; 2];
        weights[e01] = 10;
        let wl = weighted_core_numbers(&g, &weights);
        // peel vertex 2 first (wdeg 1) → then 0 and 1 form a w-10 pair
        assert_eq!(wl[2], 1);
        assert_eq!(wl[0], 10);
        assert_eq!(wl[1], 10);
        let wd = weighted_core_decomposition(&g, &weights);
        wd.hierarchy.validate().expect("valid");
        assert_eq!(wd.levels, vec![1, 10]);
        // deepest nucleus = the heavy pair
        let deep = wd.hierarchy.nuclei_at(2);
        assert_eq!(deep.len(), 1);
        assert_eq!(wd.threshold(deep[0]), 10);
        let mut cells = wd.hierarchy.nucleus_cells(deep[0]);
        cells.sort_unstable();
        assert_eq!(cells, vec![0, 1]);
    }

    #[test]
    fn connectivity_still_matters_with_weights() {
        // two weighted triangles joined by a light path: one threshold-2
        // subgraph by λʷ values, but two *connected* weighted cores —
        // the §3.1 point, weighted edition.
        let g = CsrGraph::from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (4, 5),
                (5, 6),
                (4, 6),
                (2, 3),
                (3, 4),
            ],
        );
        let mut weights = vec![2u64; g.m()];
        let light1 = g.edge_id(2, 3).unwrap() as usize;
        let light2 = g.edge_id(3, 4).unwrap() as usize;
        weights[light1] = 1;
        weights[light2] = 1;
        let wd = weighted_core_decomposition(&g, &weights);
        wd.hierarchy.validate().expect("valid");
        let top_rank = wd.hierarchy.max_lambda();
        let deep = wd.hierarchy.nuclei_at(top_rank);
        assert_eq!(deep.len(), 2, "two connected heavy cores");
    }

    #[test]
    #[should_panic]
    fn weight_arity_is_checked() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        weighted_core_numbers(&g, &[1]);
    }

    #[test]
    fn zero_weight_edges_do_not_support_cores() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let wl = weighted_core_numbers(&g, &[0, 0, 0]);
        assert_eq!(wl, vec![0, 0, 0]);
        let wd = weighted_core_decomposition(&g, &[0, 0, 0]);
        assert_eq!(wd.hierarchy.nucleus_count(), 0);
    }
}
