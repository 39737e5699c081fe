//! TCP index (the paper's (2,3) comparator) answers k-truss-community
//! queries identically to the hierarchy, across surrogate datasets.

use nucleus_bench::algo::tcp::{tcp_query, TcpIndex};
use nucleus_core::prelude::*;
use nucleus_gen::{dataset, Scale};

#[test]
fn tcp_queries_equal_hierarchy_nuclei() {
    for name in ["mit-s", "google-s", "uk2005-s"] {
        let g = dataset(name, Scale::Small);
        let es = EdgeSpace::new(&g);
        let truss = peel(&es);
        let idx = TcpIndex::build(&g, &truss);
        let d = decompose(&g, Kind::Truss, Algorithm::Dft).unwrap();
        let h = &d.hierarchy;
        for k in (1..=h.max_lambda()).step_by(2) {
            for node in h.nuclei_at(k) {
                let mut cells = h.nucleus_cells(node);
                cells.sort_unstable();
                let (u, v) = g.endpoints(cells[0]);
                let got = tcp_query(&g, &truss, &idx, u, v, k)
                    .unwrap_or_else(|| panic!("{name}: no community for k={k}"));
                assert_eq!(got, cells, "{name}: k={k} node={node}");
            }
        }
    }
}

#[test]
fn tcp_rejects_out_of_range_queries() {
    let g = dataset("mit-s", Scale::Small);
    let es = EdgeSpace::new(&g);
    let truss = peel(&es);
    let idx = TcpIndex::build(&g, &truss);
    let (_, u, v) = g.edges().next().unwrap();
    let max = truss.max_lambda;
    assert!(tcp_query(&g, &truss, &idx, u, v, max + 1).is_none());
}

#[test]
fn tcp_index_size_is_bounded() {
    let g = dataset("stanford3-s", Scale::Small);
    let es = EdgeSpace::new(&g);
    let truss = peel(&es);
    let idx = TcpIndex::build(&g, &truss);
    // each vertex's maximum spanning forest has < deg(x) edges
    let bound: usize = g.vertices().map(|v| g.degree(v)).sum();
    assert!(idx.size() < bound);
}
