//! Exploring the density hierarchy of a web-like graph with LCPS — the
//! k-core analysis that Carmi et al. and Alvarez-Hamelin et al. ran on
//! internet topologies (paper §3.1), on an R-MAT surrogate.
//!
//! ```sh
//! cargo run --release --example web_hierarchy
//! ```

use nucleus_hierarchy::gen::rmat::{rmat, RmatParams};
use nucleus_hierarchy::prelude::*;

fn main() {
    let g = rmat(14, 8, RmatParams::skewed(), 7);
    println!("R-MAT web surrogate: {} vertices, {} edges", g.n(), g.m());

    // LCPS: the paper's fastest k-core hierarchy algorithm (Table 4).
    let d = decompose(&g, Kind::Core, Algorithm::Lcps).expect("core decomposition");
    println!("{}\n", describe(&d));

    // Shell sizes: how many vertices sit at each λ (the "core collapse
    // sequence" of Seidman).
    let hist = d.peeling.lambda_histogram();
    println!("core number distribution (non-empty shells):");
    for (k, count) in hist.iter().enumerate() {
        if *count > 0 && (k < 4 || k % 4 == 0 || k == hist.len() - 1) {
            println!("  λ={k:<3} {count:>7} vertices");
        }
    }

    // Walk the deepest chain of nested cores: the "drill-down" use case.
    println!("\ndrill-down into the deepest core chain:");
    let mut cur = Hierarchy::ROOT;
    loop {
        let node = d.hierarchy.node(cur);
        let deepest_child = node
            .children
            .iter()
            .copied()
            .max_by_key(|&c| d.hierarchy.node(c).lambda);
        println!(
            "  λ={:<3} members={:<8} delta={}",
            node.lambda,
            node.subtree_cells,
            node.cells.len()
        );
        match deepest_child {
            Some(c) => cur = c,
            None => break,
        }
    }

    // Density ladder: density of the nucleus at each level of the chain.
    let vs = VertexSpace::new(&g);
    let deepest = d
        .hierarchy
        .leaves()
        .into_iter()
        .max_by_key(|&id| d.hierarchy.node(id).lambda)
        .expect("non-trivial graph");
    println!("\ndensity ladder along the deepest nucleus's ancestry:");
    let mut chain = d.hierarchy.ancestors(deepest);
    chain.reverse();
    chain.push(deepest);
    for id in chain {
        let s = summarize_nucleus(&g, &vs, &d.hierarchy, id);
        println!(
            "  k={:<3} vertices={:<6} density={:.4}",
            s.lambda, s.vertices, s.density
        );
    }

    // Sanity: LCPS output equals DFT output.
    let d2 = decompose(&g, Kind::Core, Algorithm::Dft).unwrap();
    assert!(d.hierarchy == d2.hierarchy);
    println!("\nLCPS hierarchy verified against DFT ✓");
}
