//! Property test: the TCP index (Table 5's (2,3) comparator) answers
//! every k-truss-community query with the nucleus the hierarchy holds,
//! on arbitrary random graphs.

use proptest::prelude::*;

use nucleus_bench::algo::tcp::{tcp_query, TcpIndex};
use nucleus_core::algo::dft::dft;
use nucleus_core::peel::peel;
use nucleus_core::space::EdgeSpace;
use nucleus_graph::CsrGraph;

/// Random simple graphs with up to `n_max` vertices and `m_max` edge
/// draws (self-loops and repeats are dropped).
fn graph_strategy(n_max: u32, m_max: usize) -> impl Strategy<Value = CsrGraph> {
    (2..=n_max).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..=m_max)
            .prop_map(move |edges| CsrGraph::from_edges(n as usize, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tcp_queries_match_hierarchy(g in graph_strategy(12, 40)) {
        let es = EdgeSpace::new(&g);
        let truss = peel(&es);
        let idx = TcpIndex::build(&g, &truss);
        let (h, _) = dft(&es, &truss);
        for k in 1..=h.max_lambda() {
            for node in h.nuclei_at(k) {
                let mut cells = h.nucleus_cells(node);
                cells.sort_unstable();
                let (u, v) = g.endpoints(cells[0]);
                let got = tcp_query(&g, &truss, &idx, u, v, k).expect("community exists");
                prop_assert_eq!(&got, &cells, "k={} node={}", k, node);
            }
        }
    }
}
