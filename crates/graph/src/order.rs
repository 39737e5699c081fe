//! The degeneracy (smallest-last) vertex order of Matula & Beck, used to
//! orient clique enumeration.

use crate::bucket::PeelBuckets;
use crate::csr::CsrGraph;

/// A total order on vertices, with both directions of the mapping.
#[derive(Clone, Debug)]
pub struct VertexOrder {
    /// `order[i]` = the i-th vertex in the order.
    pub order: Vec<u32>,
    /// `rank[v]` = position of vertex `v` in `order`.
    pub rank: Vec<u32>,
}

impl VertexOrder {
    /// Builds from an explicit order vector.
    pub fn from_order(order: Vec<u32>) -> Self {
        let mut rank = vec![0u32; order.len()];
        for (i, &v) in order.iter().enumerate() {
            rank[v as usize] = i as u32;
        }
        VertexOrder { order, rank }
    }
}

/// Smallest-last (degeneracy) order and the graph's degeneracy.
///
/// The order is the peeling order of the k-core decomposition: repeatedly
/// remove a vertex of minimum remaining degree. The degeneracy is the
/// largest degree seen at removal time, i.e. `max_v core(v)`.
pub fn degeneracy_order(g: &CsrGraph) -> (VertexOrder, u32) {
    let n = g.n();
    let degrees: Vec<u32> = (0..n as u32).map(|v| g.degree(v) as u32).collect();
    let mut q = PeelBuckets::new(degrees);
    let mut order = Vec::with_capacity(n);
    let mut degeneracy = 0;
    while let Some((v, k)) = q.pop_min() {
        degeneracy = degeneracy.max(k);
        order.push(v);
        for &w in g.neighbors(v) {
            if !q.is_popped(w) && q.key(w) > k {
                q.decrement(w);
            }
        }
    }
    (VertexOrder::from_order(order), degeneracy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degeneracy_of_clique() {
        let mut edges = vec![];
        for u in 0..5u32 {
            for v in u + 1..5 {
                edges.push((u, v));
            }
        }
        let g = CsrGraph::from_edges(5, &edges);
        let (_, d) = degeneracy_order(&g);
        assert_eq!(d, 4);
    }

    #[test]
    fn degeneracy_of_tree_is_one() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (2, 3), (2, 4)]);
        let (ord, d) = degeneracy_order(&g);
        assert_eq!(d, 1);
        assert_eq!(ord.order.len(), 5);
    }

    #[test]
    fn degeneracy_order_ranks_consistent() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]);
        let (ord, d) = degeneracy_order(&g);
        assert_eq!(d, 2);
        for v in g.vertices() {
            assert_eq!(ord.order[ord.rank[v as usize] as usize], v);
        }
    }
}
