//! Property tests for the graph substrate: CSR construction invariants
//! and bucket-queue model checking against naive priority structures.

use proptest::prelude::*;

use nucleus_graph::bucket::{MaxBuckets, PeelBuckets};
use nucleus_graph::order::degeneracy_order;
use nucleus_graph::traversal::connected_components;
use nucleus_graph::CsrGraph;

fn edges_strategy(n: u32, m_max: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..n, 0..n), 0..=m_max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn csr_invariants(edges in edges_strategy(40, 120)) {
        let g = CsrGraph::from_edges(40, &edges);
        // adjacency sorted & symmetric, edge ids consistent
        let mut arc_count = 0usize;
        for v in g.vertices() {
            let ns = g.neighbors(v);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]));
            for (w, eid) in g.arcs(v) {
                prop_assert_ne!(w, v, "no self loops");
                prop_assert!(g.neighbors(w).binary_search(&v).is_ok(), "symmetry");
                prop_assert_eq!(g.endpoints(eid), (v.min(w), v.max(w)));
                arc_count += 1;
            }
        }
        prop_assert_eq!(arc_count, 2 * g.m());
        // degree sum
        let degsum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degsum, 2 * g.m());
    }

    #[test]
    fn peel_buckets_match_naive_min_selection(keys in proptest::collection::vec(0u32..20, 1..60)) {
        // model: repeatedly pick min key, decrement a random eligible other
        let mut q = PeelBuckets::new(keys.clone());
        let mut popped = vec![];
        let mut last = 0;
        while let Some((x, k)) = q.pop_min() {
            prop_assert!(k >= last, "monotone");
            last = k;
            popped.push((x, k));
            // decrement every unpopped element with key > k once
            // (mimics the peeling decrement pattern)
            for y in 0..keys.len() as u32 {
                if !q.is_popped(y) && q.key(y) > k {
                    q.decrement(y);
                }
            }
        }
        prop_assert_eq!(popped.len(), keys.len());
        // every element popped exactly once
        let mut ids: Vec<u32> = popped.iter().map(|&(x, _)| x).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), keys.len());
    }

    #[test]
    fn max_buckets_match_binary_heap(ops in proptest::collection::vec((0u32..32, prop::bool::ANY), 1..120)) {
        let mut q = MaxBuckets::new(31);
        let mut model = std::collections::BinaryHeap::<u32>::new();
        let mut next_id = 0u32;
        for (prio, push) in ops {
            if push || model.is_empty() {
                q.push(next_id, prio);
                next_id += 1;
                model.push(prio);
            } else {
                let (_, got) = q.pop_max().expect("non-empty");
                let want = model.pop().expect("non-empty");
                prop_assert_eq!(got, want, "max priority must match");
            }
        }
        prop_assert_eq!(q.len(), model.len());
    }

    #[test]
    fn degeneracy_is_max_of_min_degrees(edges in edges_strategy(24, 80)) {
        let g = CsrGraph::from_edges(24, &edges);
        let (ord, d) = degeneracy_order(&g);
        // check the defining property: for every suffix of the order,
        // the first vertex has degree ≤ d within the suffix
        let pos = &ord.rank;
        for v in g.vertices() {
            let later_deg = g
                .neighbors(v)
                .iter()
                .filter(|&&w| pos[w as usize] > pos[v as usize])
                .count();
            prop_assert!(later_deg as u32 <= d, "vertex {} violates degeneracy", v);
        }
    }

    #[test]
    fn components_are_bfs_closed(edges in edges_strategy(30, 60)) {
        let g = CsrGraph::from_edges(30, &edges);
        let (labels, count) = connected_components(&g);
        prop_assert!(count >= 1 || g.n() == 0);
        for (_, u, v) in g.edges() {
            prop_assert_eq!(labels[u as usize], labels[v as usize]);
        }
    }
}
