//! Mutable edge accumulator producing [`CsrGraph`]s.

use crate::csr::CsrGraph;

/// Collects edges (in any order, with duplicates/self-loops tolerated)
/// and freezes them into a [`CsrGraph`].
///
/// ```
/// use nucleus_graph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// b.add_edge(2, 0);
/// let g = b.build();
/// assert_eq!(g.n(), 3);
/// assert_eq!(g.m(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    edges: Vec<(u32, u32)>,
    max_vertex: Option<u32>,
}

impl GraphBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder with pre-reserved capacity for `m` edges.
    pub fn with_capacity(m: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(m),
            max_vertex: None,
        }
    }

    /// Records the undirected edge `{u, v}`. Ordering, duplicates and
    /// self-loops are cleaned up at [`build`](Self::build) time.
    #[inline]
    pub fn add_edge(&mut self, u: u32, v: u32) {
        self.edges.push((u, v));
        let hi = u.max(v);
        self.max_vertex = Some(self.max_vertex.map_or(hi, |m| m.max(hi)));
    }

    /// Ensures the vertex `v` exists even if no edge touches it.
    pub fn ensure_vertex(&mut self, v: u32) {
        self.max_vertex = Some(self.max_vertex.map_or(v, |m| m.max(v)));
    }

    /// Freezes into a [`CsrGraph`] over `0..=max_vertex`.
    pub fn build(self) -> CsrGraph {
        let n = self.max_vertex.map_or(0, |m| m as usize + 1);
        CsrGraph::from_edges(n, &self.edges)
    }

    /// Freezes into a [`CsrGraph`] with an explicit vertex count
    /// (useful to keep trailing isolated vertices).
    ///
    /// # Panics
    /// Panics if any recorded endpoint is `>= n`.
    pub fn build_with_n(self, n: usize) -> CsrGraph {
        CsrGraph::from_edges(n, &self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_dedups() {
        let mut b = GraphBuilder::new();
        b.add_edge(3, 1);
        b.add_edge(1, 3);
        b.add_edge(0, 0);
        b.add_edge(0, 2);
        let g = b.build();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(1, 3));
    }

    #[test]
    fn ensure_vertex_extends_range() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.ensure_vertex(9);
        let g = b.build();
        assert_eq!(g.n(), 10);
        assert_eq!(g.degree(9), 0);
    }

    #[test]
    fn empty_builder() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.n(), 0);
    }

    #[test]
    fn build_with_explicit_n() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        let g = b.build_with_n(7);
        assert_eq!(g.n(), 7);
    }
}
