//! (3,4) space: cells are triangles, containers are four-cliques →
//! k-(3,4) nucleus, the paper's densest/most-detailed decomposition.

use std::sync::OnceLock;

use nucleus_cliques::{
    k4_degrees_indexed, triangle_companion_records, TriangleIndex, TriangleList,
};
use nucleus_graph::CsrGraph;

use super::{PeelBackend, PeelSpace};

/// The four-clique peeling space: `ω₄(t)` = number of K4s containing
/// triangle `t`. Containers of `t = {u, v, w}` are apex vertices `x`
/// adjacent to all three, found by intersecting two per-edge third-vertex
/// lists; companion triangle ids come from the [`TriangleIndex`].
///
/// Only the triangle list itself — the cell identities — is built
/// eagerly, over a degeneracy orientation that is dropped once it is
/// listed. The per-edge index and the K4 counts (`ω`) are deferred to
/// first use: a session loading a persisted (3,4) index needs neither
/// and pays for neither. Both K4 passes of a prepare read the index's
/// third lists with per-worker vertex tables: ω from
/// [`k4_degrees_indexed`], and the materialized backend's records,
/// all at once, from [`triangle_companion_records`]
/// ([`PeelSpace::fused_records`]); neither merges lists or searches a
/// triangle id.
pub struct TriangleSpace {
    g: CsrGraph,
    tris: TriangleList,
    index: OnceLock<TriangleIndex>,
    k4deg: OnceLock<Vec<u32>>,
    threads: usize,
}

impl TriangleSpace {
    /// Builds the space: enumerates triangles eagerly; the per-edge
    /// index and K4 degrees (the "enumerate K_r's + set ω" part of
    /// Alg. 1) follow lazily on first use.
    pub fn new(g: &CsrGraph) -> Self {
        Self::with_threads(g, 1)
    }

    /// Builds the space like [`TriangleSpace::new`], but runs **every**
    /// construction pass — the eager triangle enumeration, the lazy
    /// per-edge index, and the lazy K4 degrees — with `threads` worker
    /// threads (the same knob as
    /// [`nucleus_cliques::parallel::triangle_count_parallel`]). All
    /// three parallel builders are bit-identical to their serial twins,
    /// so the space's observable state never depends on `threads`.
    pub fn with_threads(g: &CsrGraph, threads: usize) -> Self {
        TriangleSpace {
            g: g.clone(),
            tris: TriangleList::build_with_threads(g, threads),
            index: OnceLock::new(),
            k4deg: OnceLock::new(),
            threads,
        }
    }

    fn index(&self) -> &TriangleIndex {
        self.index
            .get_or_init(|| TriangleIndex::build_with_threads(&self.g, &self.tris, self.threads))
    }

    fn k4deg(&self) -> &[u32] {
        self.k4deg
            .get_or_init(|| k4_degrees_indexed(&self.g, &self.tris, self.index(), self.threads))
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.g
    }

    /// The materialized triangle list (cells of this space).
    pub fn triangles(&self) -> &TriangleList {
        &self.tris
    }

    /// Total K4 count of the graph.
    pub fn k4_count(&self) -> u64 {
        self.k4deg().iter().map(|&d| d as u64).sum::<u64>() / 4
    }
}

impl PeelBackend for TriangleSpace {
    fn cell_count(&self) -> usize {
        self.tris.len()
    }

    fn degrees(&self) -> Vec<u32> {
        self.k4deg().to_vec()
    }

    #[inline]
    fn for_each_container<F: FnMut(&[u32])>(&self, cell: u32, mut f: F) {
        let [_u, v, w] = self.tris.vertices[cell as usize];
        let [e_uv, e_uw, e_vw] = self.tris.edges[cell as usize];
        // Apexes x of K4s over {u,v,w} are exactly the common thirds of
        // edges (u,v) and (u,w); the third companion triangle {v,w,x}
        // is looked up in the (v,w) list.
        let index = self.index();
        let a = index.thirds(e_uv); // (x, tid of {u,v,x})
        let b = index.thirds(e_uw); // (x, tid of {u,w,x})
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let x = a[i].0;
                    debug_assert!(x != v && x != w);
                    if let Some(t_vwx) = index.tid(e_vw, x) {
                        f(&[a[i].1, b[j].1, t_vwx]);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

impl PeelSpace for TriangleSpace {
    fn r(&self) -> u32 {
        3
    }

    fn s(&self) -> u32 {
        4
    }

    fn cell_vertices(&self, cell: u32, out: &mut Vec<u32>) {
        out.extend_from_slice(&self.tris.vertices[cell as usize]);
    }

    fn fused_records(&self, offsets: &[usize], threads: usize) -> Option<Vec<u32>> {
        Some(triangle_companion_records(
            &self.g,
            &self.tris,
            self.index(),
            offsets,
            threads,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn k5_space_shape() {
        let g = complete(5);
        let s = TriangleSpace::new(&g);
        assert_eq!(s.cell_count(), 10);
        assert_eq!(s.k4_count(), 5);
        assert!(s.degrees().iter().all(|&d| d == 2));
        assert_eq!(s.name(), "(3,4)");
    }

    #[test]
    fn containers_are_k4_companions() {
        let g = complete(4);
        let s = TriangleSpace::new(&g);
        assert_eq!(s.cell_count(), 4);
        // The single K4 means every triangle has exactly one container
        // holding the other three triangles.
        for t in 0..4u32 {
            let mut containers = vec![];
            s.for_each_container(t, |o| containers.push(o.to_vec()));
            assert_eq!(containers.len(), 1);
            let mut ids = containers[0].clone();
            ids.push(t);
            ids.sort_unstable();
            assert_eq!(ids, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn k4_free_triangles_have_no_containers() {
        // diamond: 2 triangles, no K4
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let s = TriangleSpace::new(&g);
        assert_eq!(s.cell_count(), 2);
        for t in 0..2u32 {
            let mut c = 0;
            s.for_each_container(t, |_| c += 1);
            assert_eq!(c, 0);
        }
    }

    #[test]
    fn cell_vertices_sorted_triples() {
        let g = complete(4);
        let s = TriangleSpace::new(&g);
        let mut out = vec![];
        s.cell_vertices(0, &mut out);
        assert_eq!(out.len(), 3);
        assert!(out.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn container_count_matches_degree() {
        let g = complete(6);
        let s = TriangleSpace::new(&g);
        for t in 0..s.cell_count() as u32 {
            let mut c = 0u32;
            s.for_each_container(t, |_| c += 1);
            assert_eq!(c, s.degrees()[t as usize], "triangle {t}");
        }
    }
}
