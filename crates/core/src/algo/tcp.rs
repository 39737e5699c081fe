//! TCP index (Huang et al., SIGMOD 2014) — the comparison point for the
//! (2,3) decomposition in Table 5.
//!
//! For every vertex `x`, the *Triangle Connectivity Preserving* index
//! `T_x` is the maximum spanning forest of `x`'s ego network, where ego
//! edge `(y, z)` exists iff `{x, y, z}` is a triangle and weighs
//! `min(λ₃(xy), λ₃(xz), λ₃(yz))`. The index answers "k-truss community
//! of an edge" queries via forest-guided traversal without rescanning
//! all triangles. The paper benchmarks *peeling + index construction*
//! (the index must still be traversed to list all communities).

use std::collections::HashMap;

use nucleus_dsf::DisjointSets;
use nucleus_graph::CsrGraph;

use crate::peel::Peeling;

/// The per-vertex maximum-spanning-forest index.
#[derive(Debug)]
pub struct TcpIndex {
    /// Forest edges per vertex: `(y, z, weight)` with `{x,y,z}` a triangle.
    forests: Vec<Vec<(u32, u32, u32)>>,
}

impl TcpIndex {
    /// Builds the TCP index from the (2,3) peeling (`λ₃` per edge).
    pub fn build(g: &CsrGraph, truss: &Peeling) -> Self {
        let n = g.n();
        let mut forests: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); n];
        let mut ego: Vec<(u32, u32, u32)> = Vec::new(); // (weight, y, z)
        for x in 0..n as u32 {
            ego.clear();
            let nbrs = g.neighbors(x);
            let eids = g.neighbor_edge_ids(x);
            // Ego edges: pairs (y, z) of neighbors that are adjacent.
            for (i, (&y, &e_xy)) in nbrs.iter().zip(eids).enumerate() {
                // intersect nbrs[i+1..] with neighbors(y): both sorted
                let (a, ae) = (&nbrs[i + 1..], &eids[i + 1..]);
                let (b, be) = (g.neighbors(y), g.neighbor_edge_ids(y));
                let (mut p, mut q) = (0usize, 0usize);
                while p < a.len() && q < b.len() {
                    match a[p].cmp(&b[q]) {
                        std::cmp::Ordering::Less => p += 1,
                        std::cmp::Ordering::Greater => q += 1,
                        std::cmp::Ordering::Equal => {
                            let z = a[p];
                            let e_xz = ae[p];
                            let e_yz = be[q];
                            let w = truss
                                .lambda_of(e_xy)
                                .min(truss.lambda_of(e_xz))
                                .min(truss.lambda_of(e_yz));
                            ego.push((w, y, z));
                            p += 1;
                            q += 1;
                        }
                    }
                }
            }
            if ego.is_empty() {
                continue;
            }
            // Kruskal, maximum weight first, over ego vertices indexed by
            // their position in x's adjacency list.
            ego.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
            let mut dsu = DisjointSets::new(nbrs.len());
            let pos = |v: u32| nbrs.binary_search(&v).expect("ego vertex adjacent") as u32;
            let forest = &mut forests[x as usize];
            for &(w, y, z) in &ego {
                if dsu.union(pos(y), pos(z)).is_some() {
                    forest.push((y, z, w));
                }
            }
        }
        TcpIndex { forests }
    }

    /// Forest edges stored for vertex `x`.
    pub fn forest(&self, x: u32) -> &[(u32, u32, u32)] {
        &self.forests[x as usize]
    }

    /// Total number of forest edges (index size).
    pub fn size(&self) -> usize {
        self.forests.iter().map(|f| f.len()).sum()
    }

    /// Neighbors of `from` reachable in `T_x` using only forest edges of
    /// weight ≥ k (the `V_k(x, from)` set of Huang et al.).
    fn reachable(&self, x: u32, from: u32, k: u32) -> Vec<u32> {
        let mut adj: HashMap<u32, Vec<u32>> = HashMap::new();
        for &(y, z, w) in &self.forests[x as usize] {
            if w >= k {
                adj.entry(y).or_default().push(z);
                adj.entry(z).or_default().push(y);
            }
        }
        let mut out = vec![];
        if !adj.contains_key(&from) {
            // `from` may still be a valid singleton (no qualifying edges)
            return vec![from];
        }
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![from];
        seen.insert(from);
        while let Some(v) = stack.pop() {
            out.push(v);
            if let Some(ns) = adj.get(&v) {
                for &w in ns {
                    if seen.insert(w) {
                        stack.push(w);
                    }
                }
            }
        }
        out
    }
}

/// Answers a k-truss-community query: all edges of the k-(2,3) nucleus
/// containing the edge `{u, v}`, or `None` if `λ₃(uv) < k`.
///
/// This is the TCP-guided BFS of Huang et al.: processing an edge
/// `(x, y)` pulls in every edge `(x, z)` with `z` triangle-connected to
/// `y` within `T_x` at weight ≥ k, and symmetrically for `y`.
pub fn tcp_query(
    g: &CsrGraph,
    truss: &Peeling,
    index: &TcpIndex,
    u: u32,
    v: u32,
    k: u32,
) -> Option<Vec<u32>> {
    let start = g.edge_id(u.min(v), u.max(v))?;
    if truss.lambda_of(start) < k {
        return None;
    }
    let mut in_queue = vec![false; g.m()];
    let mut result = Vec::new();
    let mut queue = vec![start];
    in_queue[start as usize] = true;
    let mut head = 0usize;
    while head < queue.len() {
        let e = queue[head];
        head += 1;
        result.push(e);
        let (x, y) = g.endpoints(e);
        for (a, b) in [(x, y), (y, x)] {
            for z in index.reachable(a, b, k) {
                if let Some(e2) = g.edge_id(a.min(z), a.max(z)) {
                    if !in_queue[e2 as usize] {
                        debug_assert!(truss.lambda_of(e2) >= k);
                        in_queue[e2 as usize] = true;
                        queue.push(e2);
                    }
                }
            }
        }
    }
    result.sort_unstable();
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peel::peel;
    use crate::space::EdgeSpace;

    fn truss_of(g: &CsrGraph) -> Peeling {
        peel(&EdgeSpace::new(g))
    }

    #[test]
    fn k5_community_is_everything() {
        let g = nucleus_gen::classic::complete(5);
        let truss = truss_of(&g);
        let idx = TcpIndex::build(&g, &truss);
        let community = tcp_query(&g, &truss, &idx, 0, 1, 3).unwrap();
        assert_eq!(community.len(), 10);
    }

    #[test]
    fn bowtie_communities_split_at_shared_vertex() {
        let g = nucleus_gen::paper::fig3_bowtie();
        let truss = truss_of(&g);
        let idx = TcpIndex::build(&g, &truss);
        let left = tcp_query(&g, &truss, &idx, 0, 1, 1).unwrap();
        assert_eq!(left.len(), 3, "only the left triangle");
        let right = tcp_query(&g, &truss, &idx, 3, 4, 1).unwrap();
        assert_eq!(right.len(), 3);
        assert!(left.iter().all(|e| !right.contains(e)));
    }

    #[test]
    fn query_rejects_low_trussness() {
        let g = nucleus_gen::paper::fig3_bowtie();
        let truss = truss_of(&g);
        let idx = TcpIndex::build(&g, &truss);
        assert!(tcp_query(&g, &truss, &idx, 0, 1, 2).is_none());
        assert!(tcp_query(&g, &truss, &idx, 0, 3, 1).is_none()); // no edge
    }

    #[test]
    fn query_outside_the_graph_is_none() {
        let g = nucleus_gen::paper::fig3_bowtie();
        let truss = truss_of(&g);
        let idx = TcpIndex::build(&g, &truss);
        let n = g.n() as u32;
        assert!(tcp_query(&g, &truss, &idx, n, 0, 1).is_none());
        assert!(tcp_query(&g, &truss, &idx, n, n + 1, 1).is_none());
        assert!(tcp_query(&g, &truss, &idx, u32::MAX, 0, 1).is_none());
        assert!(!g.has_edge(n, 0));
    }

    #[test]
    fn matches_hierarchy_nuclei() {
        // TCP communities must equal the (2,3) nuclei from the hierarchy.
        let g = nucleus_gen::karate::karate_club();
        let es = EdgeSpace::new(&g);
        let truss = peel(&es);
        let idx = TcpIndex::build(&g, &truss);
        let (h, _) = crate::algo::dft::dft(&es, &truss);
        for k in 1..=h.max_lambda() {
            for node in h.nuclei_at(k) {
                let mut cells = h.nucleus_cells(node);
                cells.sort_unstable();
                let (u, v) = g.endpoints(cells[0]);
                let community = tcp_query(&g, &truss, &idx, u, v, k).unwrap();
                assert_eq!(community, cells, "k={k} node={node}");
            }
        }
    }

    #[test]
    fn index_size_is_bounded_by_triangle_incidences() {
        let g = nucleus_gen::classic::complete(6);
        let truss = truss_of(&g);
        let idx = TcpIndex::build(&g, &truss);
        // forest at each vertex has ≤ deg - 1 edges
        for x in g.vertices() {
            assert!(idx.forest(x).len() <= g.degree(x).saturating_sub(1));
        }
        assert!(idx.size() > 0);
    }
}
