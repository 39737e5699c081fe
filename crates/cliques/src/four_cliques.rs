//! Four-clique (K4) counting per triangle — the ω₄ degrees peeled by the
//! (3,4)-nucleus decomposition — and per edge (the (2,4) family).

use nucleus_graph::CsrGraph;

use crate::triangle_index::TriangleIndex;
use crate::triangles::TriangleList;

/// Intersects three sorted slices, calling `f` for every common element.
#[inline]
pub fn intersect3_sorted<F: FnMut(u32)>(a: &[u32], b: &[u32], c: &[u32], mut f: F) {
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() && k < c.len() {
        let (x, y, z) = (a[i], b[j], c[k]);
        let max = x.max(y).max(z);
        if x == y && y == z {
            f(x);
            i += 1;
            j += 1;
            k += 1;
        } else {
            if x < max {
                i += 1;
            }
            if y < max {
                j += 1;
            }
            if z < max {
                k += 1;
            }
        }
    }
}

/// Number of K4s containing each triangle of `tris`
/// (`ω₄(t) = |N(u) ∩ N(v) ∩ N(w)|` for `t = {u, v, w}`), by a three-way
/// intersection of full neighbour lists per triangle — the serial
/// reference for [`crate::parallel::k4_degrees_indexed`], which reads
/// each triangle's K4s off the third lists of its edges instead.
pub fn k4_degrees(g: &CsrGraph, tris: &TriangleList) -> Vec<u32> {
    let mut deg = vec![0u32; tris.len()];
    for (t, &[u, v, w]) in tris.vertices.iter().enumerate() {
        let mut c = 0u32;
        intersect3_sorted(g.neighbors(u), g.neighbors(v), g.neighbors(w), |_| c += 1);
        deg[t] = c;
    }
    deg
}

/// Number of K4s containing one edge `e = {u, v}`, given the sorted
/// `(third, tid)` list of triangles over `e`: every K4 through `e` is a
/// pair of thirds `{w, x}` that is itself an edge of `g`.
#[inline]
pub fn k4_degree_of_edge(g: &CsrGraph, thirds: &[(u32, u32)]) -> u32 {
    let mut c = 0u32;
    for (i, &(w, _)) in thirds.iter().enumerate() {
        for &(x, _) in &thirds[i + 1..] {
            if g.edge_id(w, x).is_some() {
                c += 1;
            }
        }
    }
    c
}

/// Number of K4s containing each *edge* of `g` (the ω₄ degrees peeled by
/// the (2,4)-nucleus decomposition), indexed by edge id.
pub fn k4_edge_degrees(g: &CsrGraph, index: &TriangleIndex) -> Vec<u32> {
    let m = g.m();
    let mut deg = vec![0u32; m];
    for e in 0..m as u32 {
        deg[e as usize] = k4_degree_of_edge(g, index.thirds(e));
    }
    deg
}

/// Total number of K4s in `g` (each K4 contains 4 triangles).
pub fn k4_count(g: &CsrGraph, tris: &TriangleList) -> u64 {
    let total: u64 = k4_degrees(g, tris).iter().map(|&d| d as u64).sum();
    debug_assert_eq!(total % 4, 0);
    total / 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kclique::count_cliques;

    fn complete(n: u32) -> CsrGraph {
        let mut edges = vec![];
        for u in 0..n {
            for v in u + 1..n {
                edges.push((u, v));
            }
        }
        CsrGraph::from_edges(n as usize, &edges)
    }

    #[test]
    fn k4_count_of_k5() {
        let g = complete(5);
        let tl = TriangleList::build(&g);
        assert_eq!(k4_count(&g, &tl), 5); // C(5,4)
        assert_eq!(count_cliques(&g, 4), 5);
        // every triangle of K5 is in exactly 2 K4s
        assert!(k4_degrees(&g, &tl).iter().all(|&d| d == 2));
    }

    #[test]
    fn k4_free_graph() {
        // diamond has triangles but no K4
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let tl = TriangleList::build(&g);
        assert_eq!(k4_count(&g, &tl), 0);
        assert!(k4_degrees(&g, &tl).iter().all(|&d| d == 0));
    }

    #[test]
    fn k4_edge_degrees_of_k5_and_diamond() {
        let g = complete(5);
        let tl = TriangleList::build(&g);
        let idx = TriangleIndex::build(&g, &tl);
        // every edge of K5 is in exactly C(3,2) = 3 K4s
        assert!(k4_edge_degrees(&g, &idx).iter().all(|&d| d == 3));
        // consistency: Σ_e ω₄(e) = 6 × #K4 (each K4 has 6 edges)
        let sum: u64 = k4_edge_degrees(&g, &idx).iter().map(|&d| d as u64).sum();
        assert_eq!(sum, 6 * k4_count(&g, &tl));

        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let tl = TriangleList::build(&g);
        let idx = TriangleIndex::build(&g, &tl);
        assert!(k4_edge_degrees(&g, &idx).iter().all(|&d| d == 0));
    }

    #[test]
    fn intersect3_basics() {
        let mut out = vec![];
        intersect3_sorted(&[1, 3, 5, 7], &[2, 3, 5, 8], &[3, 4, 5, 9], |x| out.push(x));
        assert_eq!(out, vec![3, 5]);
        out.clear();
        intersect3_sorted(&[], &[1], &[1], |x| out.push(x));
        assert!(out.is_empty());
    }
}
