//! (2,3) space: cells are edges, containers are triangles → k-truss
//! community / k-(2,3) nucleus.

use std::sync::{Mutex, MutexGuard, OnceLock};

use nucleus_cliques::{edge_companion_records, OrientedAdjacency, SupportTallies};
use nucleus_graph::CsrGraph;

use super::{PeelBackend, PeelSpace};

/// The triangle peeling space over a graph: `ω₃(e)` = number of
/// triangles through edge `e`. Containers of `e = {u, v}` are found by
/// intersecting the sorted adjacency lists of `u` and `v`, yielding the
/// two companion edge ids per triangle without hashing. The materialized
/// backend instead fills every edge's containers at once, from the
/// oriented triangle listing that counted the supports
/// ([`PeelSpace::fused_records`]).
pub struct EdgeSpace {
    g: CsrGraph,
    supports: OnceLock<Vec<u32>>,
    /// The support count's per-worker tallies, with the degeneracy
    /// orientation and root ranges they were counted over, parked until
    /// the fused record fill lists the same triangles again (so a
    /// prepare orients the graph once and the fill's workers write
    /// through private cursors); the fill takes and frees them. A space
    /// that never materializes keeps them until it is dropped.
    tallies: Mutex<Option<SupportTallies>>,
    threads: usize,
}

impl EdgeSpace {
    /// Wraps `g`. The triangle enumeration computing edge supports (the
    /// "enumerate all K_r's / find their ω" step of Alg. 1) is deferred
    /// to the first [`PeelBackend::degrees`] call, so sessions whose ω
    /// counts come from a persisted index never pay for it.
    pub fn new(g: &CsrGraph) -> Self {
        Self::with_threads(g, 1)
    }

    /// Like [`EdgeSpace::new`], but the deferred support enumeration
    /// runs on `threads` worker threads (per-worker partial counts
    /// summed in order — identical output to the serial pass).
    pub fn with_threads(g: &CsrGraph, threads: usize) -> Self {
        EdgeSpace {
            g: g.clone(),
            supports: OnceLock::new(),
            tallies: Mutex::new(None),
            threads,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.g
    }

    fn parked(&self) -> MutexGuard<'_, Option<SupportTallies>> {
        self.tallies
            .lock()
            .expect("no thread panics while holding the parked tallies")
    }
}

impl PeelBackend for EdgeSpace {
    fn cell_count(&self) -> usize {
        self.g.m()
    }

    fn degrees(&self) -> Vec<u32> {
        self.supports
            .get_or_init(|| {
                let tallies =
                    SupportTallies::count(OrientedAdjacency::build(&self.g), self.threads);
                let supports = tallies.supports();
                *self.parked() = Some(tallies);
                supports
            })
            .clone()
    }

    #[inline]
    fn for_each_container<F: FnMut(&[u32])>(&self, cell: u32, mut f: F) {
        let (u, v) = self.g.endpoints(cell);
        let (nu, eu) = (self.g.neighbors(u), self.g.neighbor_edge_ids(u));
        let (nv, ev) = (self.g.neighbors(v), self.g.neighbor_edge_ids(v));
        let (mut i, mut j) = (0usize, 0usize);
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    // nu[i] == nv[j] == w forms triangle {u, v, w}; the
                    // other cells are edges {u, w} and {v, w}.
                    f(&[eu[i], ev[j]]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

impl PeelSpace for EdgeSpace {
    fn r(&self) -> u32 {
        2
    }

    fn s(&self) -> u32 {
        3
    }

    fn cell_vertices(&self, cell: u32, out: &mut Vec<u32>) {
        let (u, v) = self.g.endpoints(cell);
        out.push(u);
        out.push(v);
    }

    fn fused_records(&self, offsets: &[usize], threads: usize) -> Option<Vec<u32>> {
        let parked = self.parked().take();
        let tallies = parked
            .unwrap_or_else(|| SupportTallies::count(OrientedAdjacency::build(&self.g), threads));
        Some(edge_companion_records(&self.g, tallies, offsets, threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn degrees_are_supports() {
        let g = diamond();
        let s = EdgeSpace::new(&g);
        assert_eq!(s.cell_count(), 5);
        let shared = g.edge_id(1, 2).unwrap();
        assert_eq!(s.degrees()[shared as usize], 2);
    }

    #[test]
    fn containers_yield_companion_edges() {
        let g = diamond();
        let s = EdgeSpace::new(&g);
        let shared = g.edge_id(1, 2).unwrap();
        let mut tris: Vec<[u32; 2]> = vec![];
        s.for_each_container(shared, |o| tris.push([o[0], o[1]]));
        assert_eq!(tris.len(), 2);
        let e01 = g.edge_id(0, 1).unwrap();
        let e02 = g.edge_id(0, 2).unwrap();
        let e13 = g.edge_id(1, 3).unwrap();
        let e23 = g.edge_id(2, 3).unwrap();
        let mut norm: Vec<[u32; 2]> = tris
            .iter()
            .map(|t| {
                let mut t = *t;
                t.sort_unstable();
                t
            })
            .collect();
        norm.sort_unstable();
        let mut expect = vec![
            {
                let mut t = [e01, e02];
                t.sort_unstable();
                t
            },
            {
                let mut t = [e13, e23];
                t.sort_unstable();
                t
            },
        ];
        expect.sort_unstable();
        assert_eq!(norm, expect);
    }

    #[test]
    fn triangle_free_edges_have_no_containers() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let s = EdgeSpace::new(&g);
        for e in 0..g.m() as u32 {
            let mut count = 0;
            s.for_each_container(e, |_| count += 1);
            assert_eq!(count, 0);
        }
    }

    #[test]
    fn cell_vertices_are_endpoints() {
        let g = diamond();
        let s = EdgeSpace::new(&g);
        let mut out = vec![];
        s.cell_vertices(g.edge_id(1, 3).unwrap(), &mut out);
        assert_eq!(out, vec![1, 3]);
    }
}
