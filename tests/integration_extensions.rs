//! Integration coverage for the extension modules: weighted cores,
//! dynamic maintenance, skeleton analytics, export, truss variants and
//! the extra (1,3)/(2,4) spaces — all driven through the public API on
//! surrogate data.

use nucleus_hierarchy::core::algo::variants;
use nucleus_hierarchy::core::analytics::skeleton_profile;
use nucleus_hierarchy::core::space::{EdgeK4Space, VertexTriangleSpace};
use nucleus_hierarchy::core::weighted::weighted_core_decomposition;
use nucleus_hierarchy::gen::{dataset, Scale};
use nucleus_hierarchy::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn weighted_decomposition_on_surrogate() {
    let g = dataset("mit-s", Scale::Small);
    let mut rng = StdRng::seed_from_u64(3);
    let weights: Vec<u64> = (0..g.m()).map(|_| rng.gen_range(1..=5u64)).collect();
    let wd = weighted_core_decomposition(&g, &weights);
    wd.hierarchy.validate().expect("valid");
    // weighted λ dominates unweighted λ when every weight ≥ 1
    let plain = decompose(&g, Kind::Core, Algorithm::Fnd).unwrap();
    for v in 0..g.n() {
        assert!(
            wd.lambda[v] >= plain.peeling.lambda[v] as u64,
            "vertex {v}: weighted core below unweighted"
        );
    }
}

// Replaying a graph one edge at a time through the (1,2) maintainer
// must reach the batch decomposition, and tearing it down must reach 0.
#[test]
fn dynamic_cores_replay_matches_batch() {
    let g = dataset("uk2005-s", Scale::Small);
    let mut dg = DynamicGraph::with_vertices(g.n(), Kind::Core);
    for (_, u, v) in g.edges() {
        assert_eq!(dg.apply(&[EdgeOp::Insert(u, v)]).applied, 1);
    }
    let expect = decompose(&g, Kind::Core, Algorithm::Fnd).unwrap();
    assert_eq!(dg.core_numbers(), Some(expect.peeling.lambda.as_slice()));
    // and removal back to empty
    for (_, u, v) in g.edges() {
        assert_eq!(dg.apply(&[EdgeOp::Delete(u, v)]).applied, 1);
    }
    assert!(dg.core_numbers().unwrap().iter().all(|&l| l == 0));
    assert_eq!(dg.m(), 0);
}

#[test]
fn skeleton_profiles_match_decomposition_stats() {
    let g = dataset("stanford3-s", Scale::Small);
    let vs = VertexSpace::new(&g);
    let p = peel(&vs);
    let prof = skeleton_profile(&vs, &p);
    let d = decompose(&g, Kind::Core, Algorithm::Dft).unwrap();
    assert_eq!(prof.count(), d.stats.subnuclei);
    // total cells across sub-nuclei + unassigned == all cells
    let total: u64 = prof.sub_nuclei.iter().map(|s| s.size as u64).sum();
    assert_eq!(total as usize + prof.unassigned_cells, g.n());
    // per-level counts sum to the total count
    assert_eq!(prof.per_level().iter().sum::<usize>(), prof.count());
}

#[test]
fn dot_export_is_parseable_shape() {
    let g = dataset("mit-s", Scale::Small);
    let d = decompose(&g, Kind::Truss, Algorithm::Fnd).unwrap();
    let dot = hierarchy_to_dot(&d.hierarchy, 50);
    assert!(dot.starts_with("digraph"));
    assert!(dot.trim_end().ends_with('}'));
    // every edge references declared nodes
    for line in dot.lines() {
        if let Some((a, b)) = line.trim().trim_end_matches(';').split_once(" -> ") {
            assert!(dot.contains(&format!("{a} [")), "undeclared {a}");
            assert!(dot.contains(&format!("{} [", b)), "undeclared {b}");
        }
    }
}

#[test]
fn extracted_nuclei_are_densest_at_leaves() {
    let g = dataset("berkeley13-s", Scale::Small);
    let d = decompose(&g, Kind::Core, Algorithm::Fnd).unwrap();
    let vs = VertexSpace::new(&g);
    let deepest = d
        .hierarchy
        .leaves()
        .into_iter()
        .max_by_key(|&id| d.hierarchy.node(id).lambda)
        .unwrap();
    let sub = extract_nucleus(&g, &vs, &d.hierarchy, deepest);
    // the extracted subgraph's min degree is ≥ the nucleus level
    let k = d.hierarchy.node(deepest).lambda as usize;
    for v in sub.graph.vertices() {
        assert!(sub.graph.degree(v) >= k);
    }
    // extraction is a real induced subgraph: re-decomposition of it has
    // max core ≥ k
    let inner = decompose(&sub.graph, Kind::Core, Algorithm::Fnd).unwrap();
    assert!(inner.hierarchy.max_lambda() >= k as u32);
}

#[test]
fn truss_variants_are_consistent_on_surrogates() {
    let g = dataset("texas84-s", Scale::Small);
    let es = EdgeSpace::new(&g);
    let truss = peel(&es);
    let d = decompose(&g, Kind::Truss, Algorithm::Dft).unwrap();
    for k in [1, 2, truss.max_lambda.max(1)] {
        let dense = variants::k_dense(&truss, k);
        let trusses = variants::k_trusses_connected(&g, &truss, k);
        let comms = variants::k_truss_communities(&d.hierarchy, k);
        assert_eq!(dense.len(), trusses.iter().map(|t| t.len()).sum::<usize>());
        assert_eq!(dense.len(), comms.iter().map(|c| c.len()).sum::<usize>());
        assert!(comms.len() >= trusses.len());
    }
}

#[test]
fn exotic_spaces_agree_across_algorithms() {
    use nucleus_hierarchy::core::algo::{dft::dft, fnd::fnd, naive::naive};
    let g = dataset("mit-s", Scale::Small);
    // (1,3)
    let s13 = VertexTriangleSpace::new(&g);
    let p = peel(&s13);
    let h_naive = naive(&s13, &p);
    let (h_dft, _) = dft(&s13, &p);
    let out = fnd(&s13);
    assert_eq!(h_naive, h_dft);
    assert_eq!(h_dft, out.hierarchy);
    // (2,4)
    let s24 = EdgeK4Space::new(&g);
    let p = peel(&s24);
    let h_naive = naive(&s24, &p);
    let (h_dft, _) = dft(&s24, &p);
    let out = fnd(&s24);
    assert_eq!(h_naive, h_dft);
    assert_eq!(h_dft, out.hierarchy);
    // nesting across decompositions: (2,4) λ never exceeds (2,3) λ for
    // the same edge (every K4 through an edge contributes ≥ 2 triangles)
    let s23 = EdgeSpace::new(&g);
    let p23 = peel(&s23);
    let p24 = peel(&s24);
    for e in 0..g.m() {
        assert!(p24.lambda[e] <= p23.lambda[e] * 2, "edge {e}");
    }
}

#[test]
fn parallel_supports_power_the_truss_peeling() {
    // parallel edge supports equal the serial ones the EdgeSpace uses
    let g = dataset("stanford3-s", Scale::Small);
    let par = nucleus_hierarchy::cliques::parallel::edge_supports_parallel(&g, 4);
    let ser = nucleus_hierarchy::cliques::triangles::edge_supports(&g);
    assert_eq!(par, ser);
}
