//! Deterministic classic graphs used by tests, examples and docs.

use nucleus_graph::CsrGraph;

/// Complete graph K_n.
pub fn complete(n: u32) -> CsrGraph {
    let mut edges = Vec::with_capacity((n as usize * (n as usize - 1)) / 2);
    for u in 0..n {
        for v in u + 1..n {
            edges.push((u, v));
        }
    }
    CsrGraph::from_edges(n as usize, &edges)
}

/// Path graph P_n (n vertices, n-1 edges).
pub fn path(n: u32) -> CsrGraph {
    let edges: Vec<(u32, u32)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
    CsrGraph::from_edges(n as usize, &edges)
}

/// Cycle graph C_n.
pub fn cycle(n: u32) -> CsrGraph {
    assert!(n >= 3, "cycle needs n >= 3");
    let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    edges.push((n - 1, 0));
    CsrGraph::from_edges(n as usize, &edges)
}

/// Star graph: center 0 with `leaves` leaves.
pub fn star(leaves: u32) -> CsrGraph {
    let edges: Vec<(u32, u32)> = (1..=leaves).map(|v| (0, v)).collect();
    CsrGraph::from_edges(leaves as usize + 1, &edges)
}

/// Complete bipartite graph K_{a,b}.
pub fn complete_bipartite(a: u32, b: u32) -> CsrGraph {
    let mut edges = Vec::with_capacity(a as usize * b as usize);
    for u in 0..a {
        for v in 0..b {
            edges.push((u, a + v));
        }
    }
    CsrGraph::from_edges((a + b) as usize, &edges)
}

/// rows × cols grid graph.
pub fn grid(rows: u32, cols: u32) -> CsrGraph {
    let id = |r: u32, c: u32| r * cols + c;
    let mut edges = vec![];
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c)));
            }
        }
    }
    CsrGraph::from_edges((rows * cols) as usize, &edges)
}

/// Two K_k cliques joined by a path with `bridge` interior vertices.
pub fn barbell(k: u32, bridge: u32) -> CsrGraph {
    assert!(k >= 2);
    let mut edges = vec![];
    for base in [0, k] {
        for u in 0..k {
            for v in u + 1..k {
                edges.push((base + u, base + v));
            }
        }
    }
    // Path from vertex k-1 (first clique) to vertex k (second clique).
    let mut prev = k - 1;
    for i in 0..bridge {
        let mid = 2 * k + i;
        edges.push((prev, mid));
        prev = mid;
    }
    edges.push((prev, k));
    CsrGraph::from_edges((2 * k + bridge) as usize, &edges)
}

/// K_k with a path of `tail` vertices hanging off vertex 0.
pub fn lollipop(k: u32, tail: u32) -> CsrGraph {
    let mut edges = vec![];
    for u in 0..k {
        for v in u + 1..k {
            edges.push((u, v));
        }
    }
    let mut prev = 0;
    for i in 0..tail {
        edges.push((prev, k + i));
        prev = k + i;
    }
    CsrGraph::from_edges((k + tail) as usize, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_counts() {
        let g = complete(6);
        assert_eq!(g.n(), 6);
        assert_eq!(g.m(), 15);
        assert_eq!(g.degree(0), 5);
    }

    #[test]
    fn path_and_cycle() {
        assert_eq!(path(5).m(), 4);
        let c = cycle(5);
        assert_eq!(c.m(), 5);
        assert!(c.vertices().all(|v| c.degree(v) == 2));
    }

    #[test]
    fn star_shape() {
        let g = star(6);
        assert_eq!(g.degree(0), 6);
        assert!((1..=6).all(|v| g.degree(v) == 1));
    }

    #[test]
    fn bipartite_has_no_triangles() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.m(), 12);
        for u in 0..3u32 {
            for v in 0..3u32 {
                if u != v {
                    assert!(!g.has_edge(u.min(v), u.max(v)));
                }
            }
        }
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4); // horizontal + vertical
    }

    #[test]
    fn barbell_connects_cliques() {
        let g = barbell(4, 2);
        assert_eq!(g.n(), 10);
        assert_eq!(g.m(), 6 + 6 + 3);
        assert_eq!(g.degree(8), 2); // bridge vertex
    }

    #[test]
    fn lollipop_tail() {
        let g = lollipop(4, 3);
        assert_eq!(g.n(), 7);
        assert_eq!(g.degree(6), 1);
    }
}
