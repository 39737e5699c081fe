//! Immutable undirected graph in compressed-sparse-row (CSR) form.

use serde::{Deserialize, Serialize};

/// Vertex identifier. Dense in `0..n`.
pub type VertexId = u32;
/// Undirected edge identifier. Dense in `0..m`, assigned in CSR order of
/// the lexicographically smaller endpoint.
pub type EdgeId = u32;

/// A simple (no self-loops, no multi-edges), undirected graph stored in
/// CSR form with per-arc undirected edge ids.
///
/// Both directions of every edge are materialized, so `neighbors(v)` is a
/// sorted slice and `edge_id(u, v)` is a binary search. Edge ids are the
/// peeling *cells* of the (2,3)-nucleus decomposition, which is why they
/// are first-class here rather than an afterthought.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors`/`edge_ids` for `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists (both directions).
    neighbors: Vec<u32>,
    /// `edge_ids[i]` is the undirected id of the arc `neighbors[i]`.
    edge_ids: Vec<u32>,
    /// Endpoints of every undirected edge, `u < v`.
    endpoints: Vec<(u32, u32)>,
}

impl CsrGraph {
    /// Builds a graph over vertices `0..n` from an arbitrary edge list.
    ///
    /// Self-loops are dropped and duplicate/reversed copies of the same
    /// edge are merged. Endpoints must be `< n`.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        // Counting sort of the canonical pairs by smaller endpoint, then
        // a sort per bucket.
        let mut start = vec![0usize; n + 1];
        for &(a, b) in edges {
            assert!(
                (a as usize) < n && (b as usize) < n,
                "edge ({a},{b}) out of range for n={n}"
            );
            if a != b {
                start[a.min(b) as usize + 1] += 1;
            }
        }
        for u in 0..n {
            start[u + 1] += start[u];
        }
        let mut canon = vec![(0u32, 0u32); start[n]];
        let mut cursor = start.clone();
        for &(a, b) in edges {
            if a != b {
                let (u, v) = (a.min(b), a.max(b));
                canon[cursor[u as usize]] = (u, v);
                cursor[u as usize] += 1;
            }
        }
        drop(cursor);
        for u in 0..n {
            canon[start[u]..start[u + 1]].sort_unstable_by_key(|&(_, v)| v);
        }
        drop(start);
        canon.dedup();
        Self::from_sorted_unique_edges(n, canon)
    }

    /// Builds from edges already canonicalized: `u < v`, sorted, unique.
    /// This is the fast path used by generators that produce clean lists.
    pub fn from_sorted_unique_edges(n: usize, edges: Vec<(u32, u32)>) -> Self {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges not sorted/unique"
        );
        let m = edges.len();
        let mut degree = vec![0usize; n];
        for &(u, v) in &edges {
            debug_assert!(u < v, "edge not canonical");
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut neighbors = vec![0u32; acc];
        let mut edge_ids = vec![0u32; acc];
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        for (eid, &(u, v)) in edges.iter().enumerate() {
            let eid = eid as u32;
            let cu = cursor[u as usize];
            neighbors[cu] = v;
            edge_ids[cu] = eid;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize];
            neighbors[cv] = u;
            edge_ids[cv] = eid;
            cursor[v as usize] += 1;
        }
        // Each adjacency list must be sorted for binary-search lookups.
        // For edges that meet the contract every list already is: a
        // vertex's arcs toward smaller neighbours come first, in the order
        // of those neighbours, then its arcs toward larger ones, in order.
        // The check repairs the lists of a caller that breaks the contract
        // in a release build, where the `debug_assert`s are off, by
        // sorting each unsorted list with its parallel edge-id array.
        let mut scratch: Vec<(u32, u32)> = Vec::new();
        for v in 0..n {
            let (s, e) = (offsets[v], offsets[v + 1]);
            let window = &neighbors[s..e];
            if window.windows(2).all(|w| w[0] < w[1]) {
                continue;
            }
            scratch.clear();
            scratch.extend(
                neighbors[s..e]
                    .iter()
                    .copied()
                    .zip(edge_ids[s..e].iter().copied()),
            );
            scratch.sort_unstable();
            for (i, &(nb, id)) in scratch.iter().enumerate() {
                neighbors[s + i] = nb;
                edge_ids[s + i] = id;
            }
        }
        debug_assert_eq!(edges.len(), m);
        CsrGraph {
            offsets,
            neighbors,
            edge_ids,
            endpoints: edges,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.endpoints.len()
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Sorted neighbor slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Undirected edge ids parallel to [`Self::neighbors`].
    #[inline]
    pub fn neighbor_edge_ids(&self, v: u32) -> &[u32] {
        &self.edge_ids[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Iterates `(neighbor, edge_id)` pairs of `v` in sorted neighbor order.
    #[inline]
    pub fn arcs(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.neighbor_edge_ids(v).iter().copied())
    }

    /// Endpoints `(u, v)` with `u < v` of the undirected edge `e`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (u32, u32) {
        self.endpoints[e as usize]
    }

    /// All edges as an endpoint slice, indexed by edge id.
    #[inline]
    pub fn edge_endpoints(&self) -> &[(u32, u32)] {
        &self.endpoints
    }

    /// Whether the edge `{u, v}` exists; `false` when `u` is not a
    /// vertex of the graph.
    #[inline]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.edge_id(u, v).is_some()
    }

    /// Id of the edge `{u, v}`, if present; `None` when `u` is not a
    /// vertex of the graph.
    #[inline]
    pub fn edge_id(&self, u: u32, v: u32) -> Option<EdgeId> {
        let (start, end) = (
            *self.offsets.get(u as usize)?,
            *self.offsets.get(u as usize + 1)?,
        );
        let i = self.neighbors[start..end].binary_search(&v).ok()?;
        Some(self.edge_ids[start + i])
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = u32> {
        0..self.n() as u32
    }

    /// Iterator over `(edge_id, u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, u32, u32)> + '_ {
        self.endpoints
            .iter()
            .enumerate()
            .map(|(e, &(u, v))| (e as u32, u, v))
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        (0..self.n())
            .map(|v| self.degree(v as u32))
            .max()
            .unwrap_or(0)
    }

    /// Number of edges with both endpoints in `set`, a set of distinct
    /// vertices in any order; used for density reports on nuclei. Each
    /// edge is counted once, from its smaller endpoint `u`: the shorter
    /// of `N(u) ∩ (u, ∞)` and `set ∩ (u, ∞)` is probed against the
    /// other, so the cost is O(Σ_{u ∈ set} min(deg u, |set|) · log).
    /// When the set holds at least 1/64 of the vertices, probes into it
    /// test a membership bitmap (at most one word per set vertex)
    /// instead of binary-searching it. Sorted sets (what nucleus vertex
    /// listings return) are read in place; others are sorted into a
    /// copy first.
    pub fn induced_edge_count(&self, set: &[u32]) -> usize {
        let sorted;
        let set = if set.windows(2).all(|w| w[0] < w[1]) {
            set
        } else {
            let mut copy = set.to_vec();
            copy.sort_unstable();
            copy.dedup();
            sorted = copy;
            &sorted
        };
        let bits = (set.len() * 64 >= self.n()).then(|| {
            let mut bits = vec![0u64; self.n().div_ceil(64)];
            for &v in set {
                bits[v as usize / 64] |= 1 << (v % 64);
            }
            bits
        });
        let in_set = |w: u32| match &bits {
            Some(bits) => bits[w as usize / 64] >> (w % 64) & 1 == 1,
            None => set.binary_search(&w).is_ok(),
        };
        set.iter()
            .enumerate()
            .map(|(i, &u)| {
                let later = &set[i + 1..];
                let nu = self.neighbors(u);
                let up = &nu[nu.partition_point(|&w| w <= u)..];
                if up.len() <= later.len() {
                    up.iter().filter(|&&w| in_set(w)).count()
                } else {
                    later.iter().filter(|w| up.binary_search(w).is_ok()).count()
                }
            })
            .sum()
    }

    /// Density `2m / (n (n-1))` of the subgraph induced by `set`.
    pub fn induced_density(&self, set: &[u32]) -> f64 {
        let k = set.len();
        if k < 2 {
            return 0.0;
        }
        let m = self.induced_edge_count(set);
        (2.0 * m as f64) / (k as f64 * (k as f64 - 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0-1, 0-2, 1-2, 1-3, 2-3 : two triangles sharing edge 1-2.
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn basic_shape() {
        let g = diamond();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 5);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn dedup_and_self_loops() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)]);
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    fn edge_ids_are_consistent_both_directions() {
        let g = diamond();
        for (e, u, v) in g.edges() {
            assert_eq!(g.edge_id(u, v), Some(e));
            assert_eq!(g.edge_id(v, u), Some(e));
            assert_eq!(g.endpoints(e), (u, v));
            assert!(u < v);
        }
    }

    #[test]
    fn arcs_match_neighbors() {
        let g = diamond();
        for v in g.vertices() {
            let via_arcs: Vec<u32> = g.arcs(v).map(|(n, _)| n).collect();
            assert_eq!(via_arcs.as_slice(), g.neighbors(v));
            for (nb, eid) in g.arcs(v) {
                let (a, b) = g.endpoints(eid);
                assert!((a, b) == (v.min(nb), v.max(nb)));
            }
        }
    }

    #[test]
    fn induced_density() {
        let g = diamond();
        assert_eq!(g.induced_edge_count(&[0, 1, 2]), 3);
        assert!((g.induced_density(&[0, 1, 2]) - 1.0).abs() < 1e-12);
        assert_eq!(g.induced_edge_count(&[0, 3]), 0);
    }

    /// Pairwise reference for [`CsrGraph::induced_edge_count`].
    fn induced_by_pairs(g: &CsrGraph, set: &[u32]) -> usize {
        let mut count = 0;
        for (i, &u) in set.iter().enumerate() {
            for &v in &set[i + 1..] {
                if g.has_edge(u, v) {
                    count += 1;
                }
            }
        }
        count
    }

    #[test]
    fn induced_edge_count_matches_pairwise() {
        // xorshift64: deterministic graphs and subsets, no rand dependency
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as u32
        };
        // n = 1000 with sparse subsets runs the binary-search probe;
        // every other case here is dense enough for the bitmap.
        for (n, rate) in [(1u32, 3), (2, 3), (7, 3), (40, 3), (150, 3), (1000, 200)] {
            let mut edges: Vec<(u32, u32)> = (0..3 * n).map(|_| (next(n), next(n))).collect();
            // a hub adjacent to everything: its neighbour list outgrows
            // small sets, so both probe directions run
            edges.extend((1..n).map(|v| (0, v)));
            let g = CsrGraph::from_edges(n as usize, &edges);
            for _ in 0..25 {
                let mut set: Vec<u32> = (0..n).filter(|_| next(rate) == 0).collect();
                let want = induced_by_pairs(&g, &set);
                assert_eq!(g.induced_edge_count(&set), want, "sorted {set:?}");
                set.reverse();
                assert_eq!(g.induced_edge_count(&set), want, "unsorted {set:?}");
            }
            let all: Vec<u32> = (0..n).collect();
            assert_eq!(g.induced_edge_count(&all), g.m());
        }
        assert_eq!(CsrGraph::from_edges(0, &[]).induced_edge_count(&[]), 0);
        // A K4 among 1000 vertices: too sparse for the bitmap, and each
        // up-list fits its set suffix, so the set's binary search probes.
        let k4 = CsrGraph::from_edges(1000, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(k4.induced_edge_count(&[0, 1, 2, 3]), 6);
        assert_eq!(k4.induced_edge_count(&[0, 2, 999]), 1);
    }

    #[test]
    fn from_edges_matches_sort_and_dedup() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as u32
        };
        for (n, m) in [(1u32, 4), (2, 6), (5, 40), (60, 200), (500, 3000)] {
            // few distinct endpoints: self-loops, duplicates and
            // reversed copies all occur
            let mut edges: Vec<(u32, u32)> = (0..m).map(|_| (next(n), next(n))).collect();
            edges.extend(edges.clone().iter().map(|&(a, b)| (b, a)));
            let mut canon: Vec<(u32, u32)> = edges
                .iter()
                .filter(|&&(a, b)| a != b)
                .map(|&(a, b)| (a.min(b), a.max(b)))
                .collect();
            canon.sort_unstable();
            canon.dedup();
            let got = CsrGraph::from_edges(n as usize, &edges);
            let want = CsrGraph::from_sorted_unique_edges(n as usize, canon);
            assert_eq!(got.offsets, want.offsets, "n={n}");
            assert_eq!(got.neighbors, want.neighbors, "n={n}");
            assert_eq!(got.edge_ids, want.edge_ids, "n={n}");
            assert_eq!(got.endpoints, want.endpoints, "n={n}");
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let g = CsrGraph::from_edges(5, &[(1, 3)]);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.neighbors(0), &[] as &[u32]);
    }
}
