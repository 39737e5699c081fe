//! Property tests: oriented triangle enumeration and K4 degrees against
//! the brute-force clique enumerator, on random graphs.

use proptest::prelude::*;

use nucleus_cliques::four_cliques::{k4_count, k4_degrees};
use nucleus_cliques::kclique::{count_cliques, for_each_clique};
use nucleus_cliques::triangles::{edge_supports, triangle_count};
use nucleus_cliques::{k4_degrees_parallel, TriangleIndex, TriangleList};
use nucleus_graph::CsrGraph;

fn graph_strategy(n: u32, m_max: usize) -> impl Strategy<Value = CsrGraph> {
    proptest::collection::vec((0..n, 0..n), 0..=m_max)
        .prop_map(move |edges| CsrGraph::from_edges(n as usize, &edges))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn triangle_count_matches_bruteforce(g in graph_strategy(18, 70)) {
        prop_assert_eq!(triangle_count(&g), count_cliques(&g, 3));
    }

    #[test]
    fn triangle_list_is_exact(g in graph_strategy(16, 60)) {
        let tl = TriangleList::build(&g);
        let mut listed = tl.vertices.clone();
        listed.sort_unstable();
        let mut brute: Vec<[u32; 3]> = vec![];
        for_each_clique(&g, 3, |c| brute.push([c[0], c[1], c[2]]));
        brute.sort_unstable();
        prop_assert_eq!(listed, brute);
    }

    #[test]
    fn supports_sum_to_three_triangles(g in graph_strategy(16, 60)) {
        let s = edge_supports(&g);
        let total: u64 = s.iter().map(|&x| x as u64).sum();
        prop_assert_eq!(total, 3 * triangle_count(&g));
        // per-edge cross-check against common-neighbor counting
        for (e, u, v) in g.edges() {
            let mut common = 0u32;
            let (a, b) = (g.neighbors(u), g.neighbors(v));
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => { common += 1; i += 1; j += 1; }
                }
            }
            prop_assert_eq!(s[e as usize], common);
        }
    }

    #[test]
    fn k4_count_matches_bruteforce(g in graph_strategy(14, 50)) {
        let tl = TriangleList::build(&g);
        prop_assert_eq!(k4_count(&g, &tl), count_cliques(&g, 4));
        // degrees sum to 4 × K4 count
        let deg_sum: u64 = k4_degrees(&g, &tl).iter().map(|&d| d as u64).sum();
        prop_assert_eq!(deg_sum, 4 * count_cliques(&g, 4));
        // listing each K4 once gives the same per-triangle degrees
        prop_assert_eq!(k4_degrees_parallel(&g, &tl, 2), k4_degrees(&g, &tl));
    }

    #[test]
    fn triangle_index_lookups_are_complete(g in graph_strategy(14, 50)) {
        let tl = TriangleList::build(&g);
        let idx = TriangleIndex::build(&g, &tl);
        prop_assert_eq!(idx.incidence_count(), 3 * tl.len());
        for (tid, (vs, es)) in tl.vertices.iter().zip(&tl.edges).enumerate() {
            let [u, v, w] = *vs;
            prop_assert_eq!(idx.tid(es[0], w), Some(tid as u32));
            prop_assert_eq!(idx.tid(es[1], v), Some(tid as u32));
            prop_assert_eq!(idx.tid(es[2], u), Some(tid as u32));
        }
        // negative lookups: a vertex not adjacent to both endpoints
        for (e, u, v) in g.edges().take(10) {
            for w in 0..g.n() as u32 {
                let is_tri = w != u && w != v && g.has_edge(u.min(w), u.max(w)) && g.has_edge(v.min(w), v.max(w));
                prop_assert_eq!(idx.tid(e, w).is_some(), is_tri);
            }
        }
    }
}
