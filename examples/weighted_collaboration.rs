//! Weighted cores on a collaboration-style network — §3.1's weighted
//! adaptation done *with* the connectivity step the paper shows the
//! literature skipped.
//!
//! Edge weights model collaboration strength (papers co-authored). The
//! weighted hierarchy surfaces strongly-bound teams that the unweighted
//! decomposition cannot see: a clique of weight-1 acquaintances ranks
//! below a triangle of weight-10 co-authors.
//!
//! ```sh
//! cargo run --release --example weighted_collaboration
//! ```

use nucleus_hierarchy::core::weighted::weighted_core_decomposition;
use nucleus_hierarchy::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // Planted structure: a large, loosely-connected community (many
    // weight-1 edges) and two small tight teams (weight 8–12 edges).
    let mut edges = vec![];
    let mut rng = StdRng::seed_from_u64(17);
    // loose community: 40 vertices, ER-ish weight-1 edges
    for _ in 0..220 {
        let u = rng.gen_range(0..40u32);
        let v = rng.gen_range(0..40u32);
        if u != v {
            edges.push((u, v));
        }
    }
    // tight team A: vertices 40..45, clique
    for u in 40..45u32 {
        for v in u + 1..45 {
            edges.push((u, v));
        }
    }
    // tight team B: vertices 45..49, clique
    for u in 45..49u32 {
        for v in u + 1..49 {
            edges.push((u, v));
        }
    }
    // bridges from teams into the loose community
    edges.extend([(0, 40), (1, 45)]);
    let g = CsrGraph::from_edges(49, &edges);

    let mut weights = vec![0u64; g.m()];
    for (e, u, v) in g.edges() {
        weights[e as usize] = if u >= 40 && v >= 40 && (u < 45) == (v < 45) {
            rng.gen_range(8..=12) // intra-team: strong
        } else {
            1 // loose or bridge
        };
    }

    println!("collaboration graph: {} researchers, {} ties", g.n(), g.m());

    // Unweighted view: the loose community dominates by raw degree.
    let plain = decompose(&g, Kind::Core, Algorithm::Lcps).unwrap();
    let plain_top = plain.hierarchy.nuclei_at(plain.hierarchy.max_lambda());
    println!(
        "\nunweighted k-core: max λ = {}, deepest core spans {} vertices",
        plain.hierarchy.max_lambda(),
        plain_top
            .iter()
            .map(|&id| plain.hierarchy.node(id).subtree_cells)
            .sum::<u64>()
    );

    // Weighted view: the tight teams surface at the top.
    let wd = weighted_core_decomposition(&g, &weights);
    wd.hierarchy.validate().expect("valid weighted hierarchy");
    println!(
        "weighted cores: {} distinct strength levels, strongest = {}",
        wd.levels.len(),
        wd.levels.last().unwrap()
    );
    let top = wd.hierarchy.nuclei_at(wd.hierarchy.max_lambda());
    println!("\nstrongest weighted cores:");
    for id in top {
        let mut members = wd.hierarchy.nucleus_cells(id);
        members.sort_unstable();
        println!(
            "  threshold {:>2}: researchers {:?}",
            wd.threshold(id),
            members
        );
    }

    // The two teams must be separate nuclei at team B's strength level
    // (they touch only through weight-1 bridges — connectivity matters!).
    let k_b = wd.hierarchy.lambda_of(46); // rank level of team B
    let team_a = wd.hierarchy.nucleus_of_cell_at(41, k_b);
    let team_b = wd.hierarchy.nucleus_of_cell_at(46, k_b);
    match (team_a, team_b) {
        (Some(a), Some(bn)) if a != bn => {
            println!(
                "\nat strength ≥ {}, teams A and B are distinct strongly-bound cores ✓",
                wd.threshold(bn)
            )
        }
        other => println!("\nunexpected team structure: {other:?}"),
    }
}
