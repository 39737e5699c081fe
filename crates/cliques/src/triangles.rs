//! Oriented triangle enumeration and per-edge support counting.

use std::ops::Range;

use nucleus_graph::order::degeneracy_order;
use nucleus_graph::CsrGraph;

/// Adjacency oriented by degeneracy rank: for every vertex, the
/// `(neighbor, edge_id)` pairs of neighbors with *higher* rank, sorted by
/// neighbor id. Orienting by a degeneracy order bounds out-degrees by the
/// degeneracy, which caps triangle enumeration at `O(m · degeneracy)`
/// and lists every clique exactly once, from its lowest-rank vertex.
///
/// Building one costs a degeneracy ordering, so a caller that lists the
/// same cliques twice (a count pass, then a fill pass) builds it once
/// and hands it to both kernels.
pub struct OrientedAdjacency {
    offsets: Vec<usize>,
    /// (neighbor, undirected edge id), sorted by neighbor within a vertex.
    arcs: Vec<(u32, u32)>,
}

impl OrientedAdjacency {
    /// Orients `g` by its degeneracy order.
    pub fn build(g: &CsrGraph) -> Self {
        let (order, _) = degeneracy_order(g);
        let rank = &order.rank;
        let n = g.n();
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n as u32 {
            let rv = rank[v as usize];
            let out = g
                .neighbors(v)
                .iter()
                .filter(|&&w| rank[w as usize] > rv)
                .count();
            offsets[v as usize + 1] = out;
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut arcs = vec![(0u32, 0u32); offsets[n]];
        let mut cursor = offsets.clone();
        for v in 0..n as u32 {
            let rv = rank[v as usize];
            for (w, eid) in g.arcs(v) {
                if rank[w as usize] > rv {
                    arcs[cursor[v as usize]] = (w, eid);
                    cursor[v as usize] += 1;
                }
            }
        }
        // `g.arcs` yields neighbors in sorted order, so each out-list is
        // already sorted by neighbor id.
        OrientedAdjacency { offsets, arcs }
    }

    /// The `(neighbor, edge_id)` arcs out of `v`, sorted by neighbor.
    #[inline]
    pub fn out(&self, v: u32) -> &[(u32, u32)] {
        &self.arcs[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Number of vertices oriented.
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of arcs, which is the graph's edge count: every edge is
    /// oriented exactly once.
    pub(crate) fn edge_count(&self) -> usize {
        self.arcs.len()
    }
}

/// Calls `f(u, v, w, e_uv, e_uw, e_vw)` for every triangle whose
/// lowest-rank (orientation-wise first) vertex `u` lies in `roots`, in
/// the order of the full sweep: `u` ascending, `v` along out(u), `w`
/// ascending. Disjoint root ranges taken in order therefore list the
/// full sweep's sequence piece by piece, which is how the parallel
/// builders split it.
///
/// The kernel writes out(u)'s edge ids into a dense vertex table, then
/// scans each out(v) once with one table lookup per arc: the third
/// vertices `w` are out(v)'s arcs whose table entry is set, so the
/// kernel needs no sorted-list merge and no branch per comparison. The
/// table is one `u32` per vertex, allocated once per call.
pub fn for_each_triangle_in<F: FnMut(u32, u32, u32, u32, u32, u32)>(
    oriented: &OrientedAdjacency,
    roots: Range<usize>,
    mut f: F,
) {
    // No edge id reaches `u32::MAX`: ids are below `m`.
    const UNSET: u32 = u32::MAX;
    let mut edge_to = vec![UNSET; oriented.vertex_count()];
    for u in roots {
        let out_u = oriented.out(u as u32);
        for &(w, e_uw) in out_u {
            edge_to[w as usize] = e_uw;
        }
        for &(v, e_uv) in out_u {
            for &(w, e_vw) in oriented.out(v) {
                let e_uw = edge_to[w as usize];
                if e_uw != UNSET {
                    f(u as u32, v, w, e_uv, e_uw, e_vw);
                }
            }
        }
        for &(w, _) in out_u {
            edge_to[w as usize] = UNSET;
        }
    }
}

/// Calls `f(u, v, w, e_uv, e_uw, e_vw)` once per triangle of `g`.
///
/// The vertex triple is *not* sorted by id (it follows the orientation);
/// the three edge ids always correspond to the pairs named in the
/// signature.
pub fn for_each_triangle<F: FnMut(u32, u32, u32, u32, u32, u32)>(g: &CsrGraph, f: F) {
    for_each_triangle_in(&OrientedAdjacency::build(g), 0..g.n(), f);
}

/// Number of triangles in `g`.
pub fn triangle_count(g: &CsrGraph) -> u64 {
    let mut c = 0u64;
    for_each_triangle(g, |_, _, _, _, _, _| c += 1);
    c
}

/// Per-edge triangle counts (the *support* peeled by the (2,3)
/// decomposition), indexed by edge id.
pub fn edge_supports(g: &CsrGraph) -> Vec<u32> {
    let mut support = vec![0u32; g.m()];
    for_each_triangle(g, |_, _, _, e1, e2, e3| {
        support[e1 as usize] += 1;
        support[e2 as usize] += 1;
        support[e3 as usize] += 1;
    });
    support
}

/// Per-vertex triangle counts (the degrees peeled by the (1,3)
/// decomposition), indexed by vertex id.
pub fn vertex_triangle_counts(g: &CsrGraph) -> Vec<u32> {
    let mut deg = vec![0u32; g.n()];
    for_each_triangle(g, |u, v, w, _, _, _| {
        deg[u as usize] += 1;
        deg[v as usize] += 1;
        deg[w as usize] += 1;
    });
    deg
}

/// Canonical record of one triangle `{a, b, c}` with edge ids `e_ab`,
/// `e_ac`, `e_bc`: returns `([u, v, w], [e_uv, e_uw, e_vw])` with the
/// vertices sorted ascending and the edge ids permuted to match.
///
/// Each vertex is paired with its *opposite* edge (the one joining the
/// other two); that pairing survives any permutation, so one 3-element
/// sort by vertex id yields both canonical arrays at once — shared by
/// the serial and parallel [`TriangleList`] builders so both emit
/// identical records from one place.
#[inline]
pub(crate) fn canonical_triangle(
    a: u32,
    b: u32,
    c: u32,
    e_ab: u32,
    e_ac: u32,
    e_bc: u32,
) -> ([u32; 3], [u32; 3]) {
    let mut p = [(a, e_bc), (b, e_ac), (c, e_ab)];
    if p[0].0 > p[1].0 {
        p.swap(0, 1);
    }
    if p[1].0 > p[2].0 {
        p.swap(1, 2);
    }
    if p[0].0 > p[1].0 {
        p.swap(0, 1);
    }
    // edges [e(u,v), e(u,w), e(v,w)] = [opposite(w), opposite(v), opposite(u)]
    ([p[0].0, p[1].0, p[2].0], [p[2].1, p[1].1, p[0].1])
}

/// Materialized triangle list: each triangle's vertices (sorted by id)
/// and edge ids, identified by a dense triangle id in enumeration order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TriangleList {
    /// Vertex triples, each sorted ascending.
    pub vertices: Vec<[u32; 3]>,
    /// Edge ids `[e_uv, e_uw, e_vw]` matching the sorted vertex triple
    /// `[u, v, w]` (i.e. `[id(u,v), id(u,w), id(v,w)]`).
    pub edges: Vec<[u32; 3]>,
}

impl TriangleList {
    /// Enumerates and stores all triangles of `g`.
    pub fn build(g: &CsrGraph) -> Self {
        Self::build_with_threads(g, 1)
    }

    /// Enumerates and stores all triangles of `g` using `threads` worker
    /// threads, producing **exactly** the output of
    /// [`TriangleList::build`] — same triangles, same enumeration order,
    /// same dense ids.
    ///
    /// Both list over the degeneracy orientation, which is dropped once
    /// the list is built. In parallel that takes two passes: per-range
    /// triangle counts over [`crate::balanced_ranges`] (weighted by
    /// out-degree like [`crate::parallel::triangle_count_parallel`]),
    /// an exclusive prefix sum, then a scoped fill of each range's
    /// disjoint chunk in the serial sweep's vertex-major order.
    pub fn build_with_threads(g: &CsrGraph, threads: usize) -> Self {
        let oriented = &OrientedAdjacency::build(g);
        if threads <= 1 {
            let mut tris = TriangleList {
                vertices: Vec::new(),
                edges: Vec::new(),
            };
            let all = 0..oriented.vertex_count();
            for_each_triangle_in(oriented, all, |a, b, c, e_ab, e_ac, e_bc| {
                let (vs, es) = canonical_triangle(a, b, c, e_ab, e_ac, e_bc);
                tris.vertices.push(vs);
                tris.edges.push(es);
            });
            return tris;
        }
        let weights = crate::parallel::oriented_weights(oriented);
        let ranges = crate::parallel::balanced_ranges(&weights, threads);
        // Pass 1: triangles per range.
        let counts: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .iter()
                .cloned()
                .map(|range| {
                    scope.spawn(move || {
                        let mut c = 0usize;
                        for_each_triangle_in(oriented, range, |_, _, _, _, _, _| c += 1);
                        c
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        // Pass 2: prefix-sum the counts into chunk sizes and fill each
        // range's slice of both arrays in enumeration order.
        let total: usize = counts.iter().sum();
        let mut vertices = vec![[0u32; 3]; total];
        let mut edges = vec![[0u32; 3]; total];
        crate::parallel::fill_ranges_pair_scoped(
            &mut vertices,
            &mut edges,
            ranges,
            &counts,
            |range, vs_chunk, es_chunk| {
                let mut pos = 0usize;
                for_each_triangle_in(oriented, range, |a, b, c, e_ab, e_ac, e_bc| {
                    let (vs, es) = canonical_triangle(a, b, c, e_ab, e_ac, e_bc);
                    vs_chunk[pos] = vs;
                    es_chunk[pos] = es;
                    pos += 1;
                });
                assert_eq!(pos, vs_chunk.len(), "count pass must match fill pass");
            },
        );
        TriangleList { vertices, edges }
    }

    /// Number of triangles.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True when the graph is triangle-free.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kclique::count_cliques;

    fn k5() -> CsrGraph {
        let mut edges = vec![];
        for u in 0..5u32 {
            for v in u + 1..5 {
                edges.push((u, v));
            }
        }
        CsrGraph::from_edges(5, &edges)
    }

    #[test]
    fn k5_has_ten_triangles() {
        assert_eq!(triangle_count(&k5()), 10);
        assert_eq!(count_cliques(&k5(), 3), 10);
    }

    #[test]
    fn supports_of_diamond() {
        // 0-1-2 triangle + 1-2-3 triangle; shared edge (1,2) has support 2.
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let s = edge_supports(&g);
        let shared = g.edge_id(1, 2).unwrap();
        assert_eq!(s[shared as usize], 2);
        let outer = g.edge_id(0, 1).unwrap();
        assert_eq!(s[outer as usize], 1);
        assert_eq!(s.iter().sum::<u32>(), 6); // 2 triangles × 3 edges
    }

    #[test]
    fn triangle_free_graph() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]); // C4
        assert_eq!(triangle_count(&g), 0);
        assert!(TriangleList::build(&g).is_empty());
        assert!(edge_supports(&g).iter().all(|&s| s == 0));
    }

    #[test]
    fn triangle_list_edges_match_vertices() {
        let g = k5();
        let tl = TriangleList::build(&g);
        assert_eq!(tl.len(), 10);
        for (vs, es) in tl.vertices.iter().zip(&tl.edges) {
            let [u, v, w] = *vs;
            assert!(u < v && v < w);
            assert_eq!(es[0], g.edge_id(u, v).unwrap());
            assert_eq!(es[1], g.edge_id(u, w).unwrap());
            assert_eq!(es[2], g.edge_id(v, w).unwrap());
        }
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let edges: Vec<(u32, u32)> = (0..2500)
            .map(|_| (rng.gen_range(0..250u32), rng.gen_range(0..250u32)))
            .collect();
        for g in [k5(), CsrGraph::from_edges(250, &edges)] {
            let serial = TriangleList::build(&g);
            for threads in [1, 2, 4, 7] {
                assert_eq!(TriangleList::build_with_threads(&g, threads), serial);
            }
        }
        // triangle-free and empty inputs
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(TriangleList::build_with_threads(&g, 4).is_empty());
        let g = CsrGraph::from_edges(0, &[]);
        assert!(TriangleList::build_with_threads(&g, 4).is_empty());
    }

    #[test]
    fn each_triangle_reported_once() {
        let g = k5();
        let tl = TriangleList::build(&g);
        let mut seen = tl.vertices.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 10);
    }
}
