//! Finding dense "molecular complexes" with (3,4) nuclei — the PPI-style
//! use case from the paper's introduction (Bader & Hogue's complex
//! detection), on a synthetic network of planted complexes.
//!
//! (3,4) nuclei demand every *triangle* to sit in many four-cliques, so
//! they cut much tighter groups than k-core and come with the most
//! detailed hierarchy (paper §5.3).
//!
//! ```sh
//! cargo run --release --example protein_complexes
//! ```

use nucleus_hierarchy::gen::er::gnp;
use nucleus_hierarchy::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Background interaction network with planted near-clique complexes.
fn planted_complexes(seed: u64) -> (CsrGraph, Vec<Vec<u32>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let background = gnp(1500, 0.002, seed);
    let mut edges = background.edge_endpoints().to_vec();
    // plant 6 complexes: near-cliques of sizes 8..=13 at 85% density
    let mut complexes = vec![];
    for c in 0..6u32 {
        let size = 8 + (c % 6);
        let members: Vec<u32> = (0..size).map(|_| rng.gen_range(0..1500u32)).collect();
        let mut members: Vec<u32> = members;
        members.sort_unstable();
        members.dedup();
        for i in 0..members.len() {
            for j in i + 1..members.len() {
                if rng.gen_bool(0.85) {
                    edges.push((members[i], members[j]));
                }
            }
        }
        complexes.push(members);
    }
    (CsrGraph::from_edges(1500, &edges), complexes)
}

fn main() {
    let (g, planted) = planted_complexes(2026);
    println!(
        "interaction network: {} proteins, {} interactions, {} planted complexes",
        g.n(),
        g.m(),
        planted.len()
    );

    let d = decompose(&g, Kind::Nucleus34, Algorithm::Fnd).expect("(3,4) decomposition");
    println!("{}", describe(&d));

    let ts = TriangleSpace::new(&g);
    println!(
        "substrate: {} triangles, {} four-cliques",
        ts.cell_count(),
        ts.k4_count()
    );

    // Report the strongest nuclei (highest k leaves) as predicted complexes.
    let mut leaves = d.hierarchy.leaves();
    leaves.sort_by_key(|&id| std::cmp::Reverse(d.hierarchy.node(id).lambda));
    println!("\npredicted complexes (top (3,4) nuclei):");
    let mut hits = 0;
    for &leaf in leaves.iter().take(8) {
        let s = summarize_nucleus(&g, &ts, &d.hierarchy, leaf);
        let verts = nucleus_vertices(&ts, &d.hierarchy, leaf);
        // does it match a planted complex? (≥ 60% overlap both ways)
        let matched = planted.iter().position(|p| {
            let overlap = p.iter().filter(|v| verts.contains(v)).count();
            overlap * 10 >= p.len() * 6 && overlap * 10 >= verts.len() * 6
        });
        if matched.is_some() {
            hits += 1;
        }
        println!(
            "  k={:<2} proteins={:<3} density={:<5.2} planted_match={:?}",
            s.lambda, s.vertices, s.density, matched
        );
    }
    println!(
        "\nrecovered {hits} of {} planted complexes in the top nuclei",
        planted.len()
    );

    // Contrast with k-core: the 4-clique nuclei are far more selective.
    let core = decompose(&g, Kind::Core, Algorithm::Fnd).unwrap();
    let deepest_core = core
        .hierarchy
        .leaves()
        .into_iter()
        .max_by_key(|&id| core.hierarchy.node(id).lambda)
        .unwrap();
    let core_node = core.hierarchy.node(deepest_core);
    println!(
        "k-core's deepest nucleus: k={} with {} vertices — (3,4) nuclei are \
         sharper complex candidates",
        core_node.lambda, core_node.subtree_cells,
    );
}
