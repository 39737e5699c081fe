//! Semantic validation: check a hierarchy against the *definitions*
//! (Definition 2 / Corollary 2 of the paper) by brute-force traversal.
//! Quadratic-ish; intended for tests and property checks on small graphs.

use crate::hierarchy::Hierarchy;
use crate::space::PeelBackend;

/// Verifies that every node of `h` is exactly one k-(r,s) nucleus of the
/// space: the subtree cell set equals the BFS closure of its cells over
/// containers with λ_{r,s} ≥ k (connectivity **and** maximality), and the
/// minimum λ inside equals k. Generic over the backend, so materialized
/// spaces are validated through the same code path.
pub fn check_semantics<B: PeelBackend>(space: &B, h: &Hierarchy) -> Result<(), String> {
    let lambda = h.lambdas();
    for id in 1..h.len() as u32 {
        let node = h.node(id);
        let k = node.lambda;
        let mut members = h.nucleus_cells(id);
        members.sort_unstable();
        // (a) min λ inside the nucleus is exactly k
        let min_l = members.iter().map(|&c| lambda[c as usize]).min().unwrap();
        if min_l != k {
            return Err(format!("node {id}: min λ {min_l} != {k}"));
        }
        // (b) BFS closure from one member over qualifying containers
        let mut in_members = vec![false; space.cell_count()];
        for &c in &members {
            in_members[c as usize] = true;
        }
        let mut visited = vec![false; space.cell_count()];
        let start = members[0];
        let mut queue = vec![start];
        visited[start as usize] = true;
        let mut head = 0;
        let mut reached = 0usize;
        while head < queue.len() {
            let x = queue[head];
            head += 1;
            reached += 1;
            space.for_each_container(x, |others| {
                if others.iter().any(|&v| lambda[v as usize] < k) {
                    return;
                }
                for &v in others {
                    if !visited[v as usize] {
                        visited[v as usize] = true;
                        queue.push(v);
                    }
                }
            });
        }
        // connectivity: closure reaches every member; maximality: closure
        // contains nothing else
        if reached != members.len() {
            return Err(format!(
                "node {id} (k={k}): closure size {reached} != member count {}",
                members.len()
            ));
        }
        for (c, (&v, &m)) in visited.iter().zip(in_members.iter()).enumerate() {
            if v != m {
                return Err(format!(
                    "node {id} (k={k}): cell {c} closure/member mismatch"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::dft::dft;
    use crate::peel::peel;
    use crate::space::{EdgeSpace, TriangleSpace, VertexSpace};
    use crate::test_graphs;

    #[test]
    fn dft_satisfies_definitions_on_all_spaces() {
        for g in [
            test_graphs::nested_cores(),
            nucleus_gen::paper::fig2_two_three_cores(),
            nucleus_gen::paper::fig1_nucleus_contrast(),
            nucleus_gen::karate::karate_club(),
        ] {
            let vs = VertexSpace::new(&g);
            let p = peel(&vs);
            let (h, _) = dft(&vs, &p);
            check_semantics(&vs, &h).expect("(1,2) semantics");

            let es = EdgeSpace::new(&g);
            let p = peel(&es);
            let (h, _) = dft(&es, &p);
            check_semantics(&es, &h).expect("(2,3) semantics");

            let ts = TriangleSpace::new(&g);
            let p = peel(&ts);
            let (h, _) = dft(&ts, &p);
            check_semantics(&ts, &h).expect("(3,4) semantics");
        }
    }

    #[test]
    fn detects_broken_hierarchy() {
        use crate::hierarchy::{RawHierarchy, NO_NODE};
        // Two separate triangles forced into one fake nucleus.
        let g = nucleus_graph::CsrGraph::from_edges(
            6,
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        );
        let vs = VertexSpace::new(&g);
        let mut raw = RawHierarchy::new(6);
        let fake = raw.push(2, NO_NODE);
        raw.owner.fill(fake);
        let h = raw.into_hierarchy(1, 2, vec![2; 6].into(), 2);
        assert!(check_semantics(&vs, &h).is_err());
    }
}
