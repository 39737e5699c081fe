//! Quickstart: build a small graph, run all three nucleus
//! decompositions, and walk the hierarchy.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use nucleus_hierarchy::prelude::*;

fn main() {
    // A graph with visible structure: a K5 "core team", a 2-core ring
    // around it, and a pendant hanger-on.
    let mut edges = vec![];
    for u in 0..5u32 {
        for v in u + 1..5 {
            edges.push((u, v)); // K5
        }
    }
    edges.extend([(0, 5), (5, 6), (6, 7), (7, 8), (8, 1)]); // ring through the K5
    edges.push((5, 9)); // pendant
    let g = CsrGraph::from_edges(10, &edges);
    println!("graph: {} vertices, {} edges", g.n(), g.m());

    // --- k-core (1,2) with the traversal-free FND algorithm ---
    let d = decompose(&g, Kind::Core, Algorithm::Fnd).expect("core decomposition");
    println!("\n(1,2) k-core hierarchy  [{}]", describe(&d));
    print!("{}", render_tree(&d.hierarchy, 5, 8));
    for v in [0u32, 5, 9] {
        println!("  core number of vertex {v}: {}", d.peeling.lambda_of(v));
    }

    // --- k-truss community (2,3) ---
    let d = decompose(&g, Kind::Truss, Algorithm::Fnd).expect("truss decomposition");
    println!("\n(2,3) k-truss hierarchy  [{}]", describe(&d));
    print!("{}", render_tree(&d.hierarchy, 5, 8));

    // The deepest (2,3) nucleus is the K5: extract its vertices.
    let es = EdgeSpace::new(&g);
    if let Some(&leaf) = d.hierarchy.leaves().first() {
        let verts = nucleus_vertices(&es, &d.hierarchy, leaf);
        let node = d.hierarchy.node(leaf);
        println!(
            "  densest (2,3) nucleus: k={} on vertices {:?} (density {:.2})",
            node.lambda,
            verts,
            g.induced_density(&verts)
        );
    }

    // --- (3,4) nuclei ---
    let d = decompose(&g, Kind::Nucleus34, Algorithm::Fnd).expect("(3,4) decomposition");
    println!("\n(3,4) nucleus hierarchy  [{}]", describe(&d));
    print!("{}", render_tree(&d.hierarchy, 5, 8));

    // All algorithms agree — the paper's Table 4/5 correctness baseline.
    let a = decompose(&g, Kind::Core, Algorithm::Naive)
        .unwrap()
        .hierarchy;
    let b = decompose(&g, Kind::Core, Algorithm::Dft).unwrap().hierarchy;
    let c = decompose(&g, Kind::Core, Algorithm::Lcps)
        .unwrap()
        .hierarchy;
    assert!(a == b && b == c);
    println!("\nNaive, DFT, LCPS and FND all produced identical hierarchies ✓");
}
