//! Per-edge triangle index: hash-free triangle-id lookups.

use nucleus_graph::CsrGraph;

use crate::triangles::TriangleList;

/// For every edge `e = {u, v}`, the sorted list of `(w, tid)` pairs such
/// that `{u, v, w}` is the triangle with id `tid`.
///
/// This replaces a `HashMap<(u32,u32,u32), u32>` on the (3,4) peeling hot
/// path: a triangle id is found with one binary search in the third-vertex
/// list of any of its edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TriangleIndex {
    offsets: Vec<usize>,
    /// `(third vertex, triangle id)`, sorted by third vertex per edge.
    entries: Vec<(u32, u32)>,
}

impl TriangleIndex {
    /// Builds the index for `g` from its materialized triangle list.
    pub fn build(g: &CsrGraph, tris: &TriangleList) -> Self {
        let m = g.m();
        let mut counts = vec![0usize; m + 1];
        for es in &tris.edges {
            for &e in es {
                counts[e as usize + 1] += 1;
            }
        }
        for i in 1..=m {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut entries = vec![(0u32, 0u32); offsets[m]];
        let mut cursor = offsets.clone();
        for (tid, (vs, es)) in tris.vertices.iter().zip(&tris.edges).enumerate() {
            let [u, v, w] = *vs;
            let thirds = [w, v, u]; // third vertex for edges (u,v), (u,w), (v,w)
            for (&e, &third) in es.iter().zip(&thirds) {
                entries[cursor[e as usize]] = (third, tid as u32);
                cursor[e as usize] += 1;
            }
        }
        for e in 0..m {
            entries[offsets[e]..offsets[e + 1]].sort_unstable();
        }
        TriangleIndex { offsets, entries }
    }

    /// Builds the index using `threads` worker threads, producing
    /// **exactly** the output of [`TriangleIndex::build`].
    ///
    /// Three passes: (1) per-worker per-edge incidence counts over
    /// balanced triangle ranges, which sum to the CSR offsets and then
    /// become each worker's private cursors in place (worker `k` writes
    /// an edge's entries after those of workers `0..k`); (2) a scatter
    /// of `third << 32 | tid` words into each edge's slot range, a plain
    /// cursor increment and a relaxed store per entry, into slots no
    /// other worker touches; (3) a per-edge-range sort-and-unpack. The
    /// packed `u64` order equals `(third, tid)` tuple order, and each
    /// third vertex appears at most once per edge, so the sorted result
    /// is the serial builder's sorted result bit for bit.
    ///
    /// # Panics
    /// When `tris` has 2³² or more incidences, past what its `u32`
    /// cursors address.
    pub fn build_with_threads(g: &CsrGraph, tris: &TriangleList, threads: usize) -> Self {
        if threads <= 1 {
            return Self::build(g, tris);
        }
        use std::sync::atomic::{AtomicU64, Ordering};
        let m = g.m();
        let t = tris.len();
        assert!(
            u32::try_from(3 * t).is_ok(),
            "u32 cursors must address every incidence"
        );
        let tri_ranges = crate::parallel::balanced_ranges(&vec![1usize; t], threads);
        // Pass 1: per-edge incidence counts (3 per triangle).
        let mut cursors = crate::parallel::count_tallies(&tri_ranges, m, |range, counts| {
            for es in &tris.edges[range] {
                for &e in es {
                    counts[e as usize] += 1;
                }
            }
        });
        let mut offsets = vec![0usize; m + 1];
        crate::parallel::tallies_to_cursors(&mut cursors, m, |e, count| {
            offsets[e + 1] = offsets[e] + count as usize;
            offsets[e]
        });
        // Pass 2: scatter packed (third, tid) words into slot ranges.
        let total = offsets[m];
        let packed: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|scope| {
            for (range, mut cursor) in tri_ranges.into_iter().zip(cursors) {
                let packed = &packed;
                scope.spawn(move || {
                    let base = range.start;
                    for (i, (vs, es)) in tris.vertices[range.clone()]
                        .iter()
                        .zip(&tris.edges[range])
                        .enumerate()
                    {
                        let tid = (base + i) as u32;
                        let [u, v, w] = *vs;
                        let thirds = [w, v, u]; // per edge (u,v), (u,w), (v,w)
                        for (&e, &third) in es.iter().zip(&thirds) {
                            let slot = cursor[e as usize] as usize;
                            cursor[e as usize] += 1;
                            packed[slot]
                                .store((third as u64) << 32 | tid as u64, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let mut packed: Vec<u64> = packed.into_iter().map(|a| a.into_inner()).collect();
        // Pass 3: per-edge sort + unpack, over balanced edge ranges.
        let mut entries = vec![(0u32, 0u32); total];
        let weights: Vec<usize> = (0..m).map(|e| offsets[e + 1] - offsets[e] + 1).collect();
        let edge_ranges = crate::parallel::balanced_ranges(&weights, threads);
        let chunk_lens: Vec<usize> = edge_ranges
            .iter()
            .map(|r| offsets[r.end] - offsets[r.start])
            .collect();
        crate::parallel::fill_ranges_pair_scoped(
            &mut packed,
            &mut entries,
            edge_ranges,
            &chunk_lens,
            |range, pchunk, echunk| {
                let base = offsets[range.start];
                for e in range {
                    let (s, t) = (offsets[e] - base, offsets[e + 1] - base);
                    pchunk[s..t].sort_unstable();
                    for (slot, &p) in echunk[s..t].iter_mut().zip(&pchunk[s..t]) {
                        *slot = ((p >> 32) as u32, p as u32);
                    }
                }
            },
        );
        TriangleIndex { offsets, entries }
    }

    /// `(third vertex, triangle id)` pairs of edge `e`, sorted by vertex.
    #[inline]
    pub fn thirds(&self, e: u32) -> &[(u32, u32)] {
        &self.entries[self.offsets[e as usize]..self.offsets[e as usize + 1]]
    }

    /// Id of the triangle formed by edge `e` and vertex `w`, if any.
    #[inline]
    pub fn tid(&self, e: u32, w: u32) -> Option<u32> {
        let slice = self.thirds(e);
        slice
            .binary_search_by_key(&w, |&(third, _)| third)
            .ok()
            .map(|i| slice[i].1)
    }

    /// Total number of (edge, triangle) incidences (= 3 × #triangles).
    pub fn incidence_count(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn lookups_match_list() {
        let g = diamond();
        let tl = TriangleList::build(&g);
        let idx = TriangleIndex::build(&g, &tl);
        assert_eq!(idx.incidence_count(), 3 * tl.len());
        for (tid, (vs, es)) in tl.vertices.iter().zip(&tl.edges).enumerate() {
            let [u, v, w] = *vs;
            assert_eq!(idx.tid(es[0], w), Some(tid as u32));
            assert_eq!(idx.tid(es[1], v), Some(tid as u32));
            assert_eq!(idx.tid(es[2], u), Some(tid as u32));
        }
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        let edges: Vec<(u32, u32)> = (0..2500)
            .map(|_| (rng.gen_range(0..250u32), rng.gen_range(0..250u32)))
            .collect();
        let mut k5 = vec![];
        for u in 0..5u32 {
            for v in u + 1..5 {
                k5.push((u, v));
            }
        }
        for g in [
            diamond(),
            CsrGraph::from_edges(5, &k5),
            CsrGraph::from_edges(250, &edges),
        ] {
            let tl = TriangleList::build(&g);
            let serial = TriangleIndex::build(&g, &tl);
            for threads in [1, 2, 4, 7] {
                assert_eq!(TriangleIndex::build_with_threads(&g, &tl, threads), serial);
            }
        }
        // triangle-free graph: all edges have empty third lists
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let tl = TriangleList::build(&g);
        let idx = TriangleIndex::build_with_threads(&g, &tl, 4);
        assert_eq!(idx.incidence_count(), 0);
        assert_eq!(idx, TriangleIndex::build(&g, &tl));
    }

    #[test]
    fn absent_triangles_return_none() {
        let g = diamond();
        let tl = TriangleList::build(&g);
        let idx = TriangleIndex::build(&g, &tl);
        let e03 = g.edge_id(0, 1).unwrap();
        assert_eq!(idx.tid(e03, 3), None); // {0,1,3} is not a triangle
    }

    #[test]
    fn shared_edge_lists_both_triangles() {
        let g = diamond();
        let tl = TriangleList::build(&g);
        let idx = TriangleIndex::build(&g, &tl);
        let shared = g.edge_id(1, 2).unwrap();
        let thirds: Vec<u32> = idx.thirds(shared).iter().map(|&(w, _)| w).collect();
        assert_eq!(thirds, vec![0, 3]);
    }
}
