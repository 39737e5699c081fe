//! DF-Traversal (Algorithms 5 and 6 of the paper): find every
//! sub-(r,s) nucleus in decreasing λ order with one traversal, stitching
//! the hierarchy-skeleton with the root-augmented disjoint-set forest.
//!
//! The only property DFT needs from [`Peeling::order`] is
//! **λ-monotonicity**: walking it in reverse must enumerate cells in
//! non-increasing λ, so every deeper sub-nucleus is already wired when
//! a shallower one reaches it. The serial bucket queue
//! ([`crate::peel::peel`]) guarantees it by construction.

use std::sync::Arc;

use crate::hierarchy::{Hierarchy, NO_NODE};
use crate::peel::Peeling;
use crate::skeleton::Skeleton;
use crate::space::{PeelBackend, PeelSpace};

/// Counters reported alongside the DFT hierarchy (Table 3 columns).
#[derive(Clone, Copy, Debug, Default)]
pub struct DftStats {
    /// Number of sub-nuclei discovered (= |T_{r,s}|: DFT finds each
    /// maximal sub-nucleus exactly once).
    pub subnuclei: usize,
}

/// Runs DF-Traversal over an already-peeled space and returns the
/// canonical hierarchy.
///
/// ```
/// use nucleus_core::algo::dft::dft;
/// use nucleus_core::peel::peel;
/// use nucleus_core::space::VertexSpace;
///
/// // the paper's Figure 2: two K4s joined by a degree-2 path — one
/// // 2-core containing two distinct 3-cores
/// let g = nucleus_gen::paper::fig2_two_three_cores();
/// let vs = VertexSpace::new(&g);
/// let p = peel(&vs);
/// let (h, stats) = dft(&vs, &p);
/// assert_eq!(h.nuclei_at(2).len(), 1);
/// assert_eq!(h.nuclei_at(3).len(), 2);
/// assert_eq!(stats.subnuclei, 3); // two λ=3 towers + the λ=2 bridge
/// ```
pub fn dft<S: PeelSpace>(space: &S, peeling: &Peeling) -> (Hierarchy, DftStats) {
    let (sk, stats) = dft_skeleton(space, peeling);
    let hierarchy = sk.into_raw().into_hierarchy(
        space.r(),
        space.s(),
        Arc::clone(&peeling.lambda),
        peeling.max_lambda,
    );
    (hierarchy, stats)
}

/// The traversal proper: discovers every maximal sub-nucleus in
/// decreasing-λ order and wires the hierarchy-skeleton, without the
/// final contraction.
fn dft_skeleton<B: PeelBackend>(space: &B, peeling: &Peeling) -> (Skeleton, DftStats) {
    let n = space.cell_count();
    let mut sk = Skeleton::new(n);
    let mut visited = vec![false; n];
    // `marked` from Alg. 6, implemented as a stamp per sub-nucleus so no
    // per-call clearing is needed.
    let mut marked: Vec<u32> = Vec::new();
    let mut stamp = 0u32;
    let mut queue: Vec<u32> = Vec::new();
    let mut merge: Vec<u32> = Vec::new();

    // Decreasing-λ sweep: the peeling order is non-decreasing in λ, so
    // its reverse enumerates cells exactly as Alg. 5 lines 4-7 require.
    for idx in (0..peeling.order.len()).rev() {
        let u = peeling.order[idx];
        let k = peeling.lambda_of(u);
        if k == 0 {
            // λ = 0 cells lie in no container: they belong to the root.
            break;
        }
        if visited[u as usize] {
            continue;
        }
        // ---- SubNucleus(u) — Alg. 6 ----
        stamp += 1;
        let sn = sk.new_subnucleus(k);
        marked.push(0);
        merge.clear();
        queue.clear();
        queue.push(u);
        visited[u as usize] = true;
        let mut head = 0usize;
        while head < queue.len() {
            let x = queue[head];
            head += 1;
            sk.comp[x as usize] = sn;
            space.for_each_container(x, |others| {
                // Only containers with λ_{r,s}(C) = k qualify (every cell
                // of C must have λ ≥ k; x itself has λ = k).
                if others.iter().any(|&v| peeling.lambda_of(v) < k) {
                    return;
                }
                for &v in others {
                    if peeling.lambda_of(v) == k {
                        if !visited[v as usize] {
                            visited[v as usize] = true;
                            queue.push(v);
                        }
                    } else {
                        // λ(v) > k: v was traversed in an earlier (deeper)
                        // sweep; hook its structure into the skeleton.
                        let s0 = sk.comp[v as usize];
                        debug_assert_ne!(s0, NO_NODE, "deeper cell without comp");
                        if marked[s0 as usize] == stamp {
                            continue;
                        }
                        let s1 = sk.forest.find_r(s0);
                        marked[s0 as usize] = stamp;
                        if s1 == sn || (s1 != s0 && marked[s1 as usize] == stamp) {
                            continue;
                        }
                        marked[s1 as usize] = stamp;
                        if sk.lambda[s1 as usize] > k {
                            sk.forest.attach(s1, sn);
                        } else {
                            debug_assert_eq!(sk.lambda[s1 as usize], k);
                            merge.push(s1);
                        }
                    }
                }
            });
        }
        for &m in &merge {
            sk.forest.union_r(sn, m);
        }
    }

    let stats = DftStats {
        subnuclei: sk.len(),
    };
    (sk, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peel::peel;
    use crate::space::{EdgeSpace, VertexSpace};
    use crate::test_graphs;

    #[test]
    fn two_three_cores_are_separated() {
        let g = nucleus_gen::paper::fig2_two_three_cores();
        let vs = VertexSpace::new(&g);
        let p = peel(&vs);
        let (h, stats) = dft(&vs, &p);
        h.validate().expect("valid hierarchy");
        // one 2-core containing everything, two 3-cores inside it
        let two_cores = h.nuclei_at(2);
        assert_eq!(two_cores.len(), 1);
        let three_cores = h.nuclei_at(3);
        assert_eq!(three_cores.len(), 2);
        for id in three_cores {
            assert_eq!(h.node(id).subtree_cells, 4);
        }
        assert!(stats.subnuclei >= 3);
    }

    #[test]
    fn fig4_distant_equal_lambda_regions_share_a_core() {
        let (g, reps) = nucleus_gen::paper::fig4_chained_towers();
        let vs = VertexSpace::new(&g);
        let p = peel(&vs);
        let (h, _) = dft(&vs, &p);
        h.validate().expect("valid");
        // the two bridges (λ=2) live in the same 2-core node even though
        // they are separated by λ=3 towers
        let a_node = h.node_of_cell(reps[3]);
        let e_node = h.node_of_cell(reps[4]);
        assert_eq!(a_node, e_node);
        assert_eq!(h.node(a_node).lambda, 2);
        // three distinct 3-cores under it
        assert_eq!(h.nuclei_at(3).len(), 3);
    }

    #[test]
    fn fig4_has_five_sub_nuclei() {
        // three λ=3 towers + two λ=2 bridges = 5 T₁,₂s, but only 4 nuclei
        let (g, _) = nucleus_gen::paper::fig4_chained_towers();
        let vs = VertexSpace::new(&g);
        let p = peel(&vs);
        let (sk, stats) = dft_skeleton(&vs, &p);
        assert_eq!(stats.subnuclei, 5);
        assert_eq!(sk.len(), 5);
        let mut per_level = vec![0usize; p.max_lambda as usize + 1];
        for &k in &sk.lambda {
            per_level[k as usize] += 1;
        }
        assert_eq!(per_level[2], 2);
        assert_eq!(per_level[3], 3);
        // every cell lands in some sub-nucleus; the largest holds 4 cells
        assert!(sk.comp.iter().all(|&c| c != NO_NODE));
        let mut sizes = vec![0usize; sk.len()];
        for &c in &sk.comp {
            sizes[c as usize] += 1;
        }
        assert_eq!(sizes.iter().max(), Some(&4));
        assert_eq!(sizes.iter().sum::<usize>(), 16);
        let (h, _) = dft(&vs, &p);
        assert_eq!(h.nucleus_count(), 4);
    }

    #[test]
    fn bowtie_truss_has_two_nuclei() {
        let g = nucleus_gen::paper::fig3_bowtie();
        let es = EdgeSpace::new(&g);
        let p = peel(&es);
        let (h, _) = dft(&es, &p);
        h.validate().expect("valid");
        // each triangle is its own 1-(2,3) nucleus: triangle connectivity
        // does not pass through the shared vertex
        assert_eq!(h.nuclei_at(1).len(), 2);
    }

    #[test]
    fn three_level_hierarchy_shape() {
        let g = test_graphs::nested_cores();
        let vs = VertexSpace::new(&g);
        let p = peel(&vs);
        let (h, _) = dft(&vs, &p);
        h.validate().expect("valid");
        assert_eq!(h.depth(), 3);
    }
}
