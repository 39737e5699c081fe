//! R-MAT (recursive matrix) generator — the standard synthetic stand-in
//! for skewed web/internet graphs (our surrogate regime for `skitter`,
//! `Google`, `wiki-0611`).

use nucleus_graph::CsrGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// R-MAT parameters: quadrant probabilities (must sum to 1).
#[derive(Clone, Copy, Debug)]
pub struct RmatParams {
    /// top-left quadrant probability
    pub a: f64,
    /// top-right
    pub b: f64,
    /// bottom-left
    pub c: f64,
    /// bottom-right
    pub d: f64,
}

impl RmatParams {
    /// The classic skewed default (0.57, 0.19, 0.19, 0.05).
    pub fn skewed() -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
        }
    }

    /// Graph500-ish heavier skew.
    pub fn heavy() -> Self {
        RmatParams {
            a: 0.65,
            b: 0.15,
            c: 0.15,
            d: 0.05,
        }
    }
}

/// Generates an undirected R-MAT graph with `2^scale` vertices and
/// (up to) `edge_factor · 2^scale` edges; self-loops and duplicates are
/// removed, so the final edge count is slightly lower.
///
/// # Panics
/// Panics if `scale > 31` (vertex ids are `u32`, and the vertex count
/// `2^scale` must fit one too) or if the quadrant probabilities do not
/// sum to 1.
pub fn rmat(scale: u32, edge_factor: u32, params: RmatParams, seed: u64) -> CsrGraph {
    assert!(scale <= 31, "need scale <= 31 for 32-bit vertex ids");
    let sum = params.a + params.b + params.c + params.d;
    assert!(
        (sum - 1.0).abs() < 1e-9,
        "quadrant probabilities must sum to 1"
    );
    let n = 1u64 << scale;
    let m = n * edge_factor as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m as usize);
    for _ in 0..m {
        let (mut u, mut v) = (0u64, 0u64);
        for _ in 0..scale {
            let r: f64 = rng.gen();
            let (du, dv) = if r < params.a {
                (0, 0)
            } else if r < params.a + params.b {
                (0, 1)
            } else if r < params.a + params.b + params.c {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | du;
            v = (v << 1) | dv;
        }
        if u != v {
            edges.push((u as u32, v as u32));
        }
    }
    CsrGraph::from_edges(n as usize, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_bounds() {
        let g = rmat(10, 8, RmatParams::skewed(), 1);
        assert_eq!(g.n(), 1024);
        assert!(g.m() <= 8 * 1024);
        assert!(g.m() > 4 * 1024, "dedup removed too much: m={}", g.m());
    }

    #[test]
    fn skewed_degrees() {
        let g = rmat(12, 8, RmatParams::skewed(), 2);
        let avg = 2.0 * g.m() as f64 / g.n() as f64;
        assert!(g.max_degree() as f64 > 8.0 * avg, "R-MAT should have hubs");
    }

    #[test]
    fn deterministic() {
        let a = rmat(8, 4, RmatParams::heavy(), 5);
        let b = rmat(8, 4, RmatParams::heavy(), 5);
        assert_eq!(a.edge_endpoints(), b.edge_endpoints());
    }

    #[test]
    #[should_panic]
    fn rejects_bad_params() {
        rmat(
            4,
            2,
            RmatParams {
                a: 0.5,
                b: 0.5,
                c: 0.5,
                d: 0.5,
            },
            0,
        );
    }
}
