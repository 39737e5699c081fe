//! Simple recursive k-clique enumeration — the brute-force reference
//! the triangle and K4 kernels are tested against. Correct for any
//! `k >= 1`; intended for small/medium graphs (it carries no pivoting
//! optimizations on purpose, to stay obviously correct).

use nucleus_graph::CsrGraph;

/// Calls `f` once per k-clique of `g`; cliques are reported as strictly
/// increasing vertex slices.
pub fn for_each_clique<F: FnMut(&[u32])>(g: &CsrGraph, k: usize, mut f: F) {
    if k == 0 {
        return;
    }
    let mut current: Vec<u32> = Vec::with_capacity(k);
    let mut candidate_stack: Vec<Vec<u32>> = Vec::with_capacity(k);
    for v in 0..g.n() as u32 {
        current.push(v);
        if k == 1 {
            f(&current);
            current.pop();
            continue;
        }
        let cands: Vec<u32> = g.neighbors(v).iter().copied().filter(|&w| w > v).collect();
        candidate_stack.push(cands);
        extend(g, k, &mut current, &mut candidate_stack, &mut f);
        candidate_stack.pop();
        current.pop();
    }
}

fn extend<F: FnMut(&[u32])>(
    g: &CsrGraph,
    k: usize,
    current: &mut Vec<u32>,
    candidate_stack: &mut Vec<Vec<u32>>,
    f: &mut F,
) {
    let cands = candidate_stack.last().expect("candidate frame").clone();
    for &w in &cands {
        current.push(w);
        if current.len() == k {
            f(current);
        } else {
            // Next candidates: current ones that are adjacent to w and larger.
            let next: Vec<u32> = cands
                .iter()
                .copied()
                .filter(|&x| x > w && g.has_edge(w.min(x), w.max(x)))
                .collect();
            if next.len() + current.len() >= k {
                candidate_stack.push(next);
                extend(g, k, current, candidate_stack, f);
                candidate_stack.pop();
            }
        }
        current.pop();
    }
}

/// Number of k-cliques in `g`.
pub fn count_cliques(g: &CsrGraph, k: usize) -> u64 {
    let mut c = 0u64;
    for_each_clique(g, k, |_| c += 1);
    c
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

    fn binom(n: u64, k: u64) -> u64 {
        if k > n {
            return 0;
        }
        let mut r = 1u64;
        for i in 0..k {
            r = r * (n - i) / (i + 1);
        }
        r
    }

    #[test]
    fn complete_graph_counts() {
        let g = complete(7);
        for k in 1..=7 {
            assert_eq!(count_cliques(&g, k), binom(7, k as u64), "k={k}");
        }
        assert_eq!(count_cliques(&g, 8), 0);
    }

    #[test]
    fn cliques_are_sorted_and_valid() {
        let g = complete(5);
        for_each_clique(&g, 3, |c| {
            assert!(c.windows(2).all(|w| w[0] < w[1]));
            for i in 0..c.len() {
                for j in i + 1..c.len() {
                    assert!(g.has_edge(c[i], c[j]));
                }
            }
        });
    }

    #[test]
    fn path_has_no_triangles() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(count_cliques(&g, 3), 0);
        assert_eq!(count_cliques(&g, 2), 3);
        assert_eq!(count_cliques(&g, 1), 4);
    }

    #[test]
    fn zero_k_is_empty() {
        let g = complete(3);
        assert_eq!(count_cliques(&g, 0), 0);
    }
}
