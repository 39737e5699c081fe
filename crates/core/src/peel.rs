//! The peeling process (`Set-λ`, Algorithm 1 of the paper): the
//! sequential bucket-queue loop ([`peel`]) every session runs.
//!
//! [`peel`] — and [`crate::algo::fnd::fnd_classify`], FND's loop, which
//! peels the same way — starts with the ω₀ = 0 bypass: a cell in no
//! container has λ = 0 and decrements nothing, so one pass over ω₀ puts
//! every such cell first in the order, in ascending id (exactly where
//! the bucket queue would pop them), and the queue holds the remaining
//! cells only. On sparse inputs most edges lie in no triangle, so this
//! skips most of the queue work and every empty container scan.

use std::sync::Arc;

use nucleus_graph::bucket::PeelBuckets;

use crate::space::PeelBackend;

/// Output of the peeling phase: the λ_s value of every cell plus the
/// processing order (non-decreasing in λ — the property both DFT and FND
/// rely on).
#[derive(Clone, Debug)]
pub struct Peeling {
    /// λ_s per cell: the largest k such that the cell lies in a k-(r,s)
    /// nucleus. Shared, not copied, with the [`crate::Hierarchy`] built
    /// from this peeling.
    pub lambda: Arc<[u32]>,
    /// Maximum λ over all cells.
    pub max_lambda: u32,
    /// Cells in processing (peeling) order; λ is non-decreasing along it.
    pub order: Vec<u32>,
}

impl Peeling {
    /// λ of a cell.
    #[inline]
    pub fn lambda_of(&self, cell: u32) -> u32 {
        self.lambda[cell as usize]
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.lambda.len()
    }

    /// Histogram of λ values (index = λ, value = number of cells).
    pub fn lambda_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.max_lambda as usize + 1];
        for &l in self.lambda.iter() {
            h[l as usize] += 1;
        }
        h
    }
}

/// Runs `Set-λ` (Algorithm 1): repeatedly process an unprocessed cell of
/// minimum ω, assign `λ = ω`, and decrement the ω of unprocessed
/// co-cells in still-alive containers.
///
/// ```
/// use nucleus_core::peel::peel;
/// use nucleus_core::space::{EdgeSpace, VertexSpace};
/// use nucleus_graph::CsrGraph;
///
/// // triangle with a tail: core numbers [2,2,2,1], trussness [1,1,1,0]
/// let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
/// assert_eq!(*peel(&VertexSpace::new(&g)).lambda, [2, 2, 2, 1]);
/// let truss = peel(&EdgeSpace::new(&g));
/// assert_eq!(truss.max_lambda, 1);
/// assert_eq!(truss.lambda_of(g.edge_id(2, 3).unwrap()), 0);
/// ```
pub fn peel<B: PeelBackend>(space: &B) -> Peeling {
    // The ω₀ = 0 bypass (see the module docs): the queue holds the other
    // cells, and λ is every cell's pop key, 0 for the bypassed ones.
    let (mut q, mut order) = PeelBuckets::skipping_zeros(space.degrees());
    let mut max_lambda = 0u32;
    while let Some((u, k)) = q.pop_min() {
        max_lambda = max_lambda.max(k);
        order.push(u);
        space.for_each_container(u, |others| {
            // A container with an already-processed cell is dead: it was
            // accounted for when that cell was peeled (Alg. 1, line 8).
            if others.iter().any(|&v| q.is_popped(v)) {
                return;
            }
            for &v in others {
                if q.key(v) > k {
                    q.decrement(v);
                }
            }
        });
    }
    Peeling {
        lambda: q.into_keys(),
        max_lambda,
        order,
    }
}

/// Brute-force reference: computes λ by literally re-running the
/// definition — repeatedly delete all cells with ω < k from the highest
/// k downward. Exponentially clearer, polynomially slower; used by the
/// property tests to pin down [`peel`].
pub fn peel_reference<B: PeelBackend>(space: &B) -> Vec<u32> {
    let n = space.cell_count();
    let mut lambda = vec![0u32; n];
    let mut alive = vec![true; n];
    let mut k = 1u32;
    loop {
        // Iteratively delete alive cells whose alive-container count < k.
        let mut changed = true;
        while changed {
            changed = false;
            for c in 0..n as u32 {
                if !alive[c as usize] {
                    continue;
                }
                let mut deg = 0u32;
                space.for_each_container(c, |others| {
                    if others.iter().all(|&v| alive[v as usize]) {
                        deg += 1;
                    }
                });
                if deg < k {
                    alive[c as usize] = false;
                    changed = true;
                }
            }
        }
        let mut any = false;
        for c in 0..n {
            if alive[c] {
                lambda[c] = k;
                any = true;
            }
        }
        if !any {
            break;
        }
        k += 1;
    }
    lambda
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{EdgeSpace, TriangleSpace, VertexSpace};
    use nucleus_graph::CsrGraph;

    fn complete(n: u32) -> CsrGraph {
        let mut edges = vec![];
        for u in 0..n {
            for v in u + 1..n {
                edges.push((u, v));
            }
        }
        CsrGraph::from_edges(n as usize, &edges)
    }

    #[test]
    fn core_numbers_of_clique() {
        let g = complete(6);
        let p = peel(&VertexSpace::new(&g));
        assert!(p.lambda.iter().all(|&l| l == 5));
        assert_eq!(p.max_lambda, 5);
    }

    #[test]
    fn core_numbers_of_path_and_star() {
        let path = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = peel(&VertexSpace::new(&path));
        assert!(p.lambda.iter().all(|&l| l == 1));

        let star = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let p = peel(&VertexSpace::new(&star));
        assert!(p.lambda.iter().all(|&l| l == 1));
    }

    #[test]
    fn isolated_vertices_have_lambda_zero() {
        let g = CsrGraph::from_edges(4, &[(0, 1)]);
        let p = peel(&VertexSpace::new(&g));
        assert_eq!(p.lambda[2], 0);
        assert_eq!(p.lambda[3], 0);
        assert_eq!(p.lambda[0], 1);
    }

    #[test]
    fn order_is_monotone_in_lambda() {
        let g = crate::test_graphs::nested_cores();
        let p = peel(&VertexSpace::new(&g));
        let mut last = 0;
        for &c in &p.order {
            assert!(p.lambda_of(c) >= last);
            last = p.lambda_of(c);
        }
        assert_eq!(p.order.len(), g.n());
    }

    #[test]
    fn truss_numbers_of_clique() {
        // K5: every edge in 3 triangles, λ₃ = 3 for all.
        let g = complete(5);
        let p = peel(&EdgeSpace::new(&g));
        assert!(p.lambda.iter().all(|&l| l == 3));
    }

    #[test]
    fn nucleus34_of_clique() {
        // K6: every triangle in 3 K4s, λ₄ = 3 for all.
        let g = complete(6);
        let p = peel(&TriangleSpace::new(&g));
        assert!(p.lambda.iter().all(|&l| l == 3));
    }

    #[test]
    fn matches_reference_on_mixed_graph() {
        let g = crate::test_graphs::nested_cores();
        for_all_spaces_match(&g);
        let g = nucleus_graph::CsrGraph::from_edges(
            7,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 3),
                (5, 6),
            ],
        );
        for_all_spaces_match(&g);
    }

    fn for_all_spaces_match(g: &CsrGraph) {
        let vs = VertexSpace::new(g);
        assert_eq!(*peel(&vs).lambda, peel_reference(&vs));
        let es = EdgeSpace::new(g);
        assert_eq!(*peel(&es).lambda, peel_reference(&es));
        let ts = TriangleSpace::new(g);
        assert_eq!(*peel(&ts).lambda, peel_reference(&ts));
    }

    #[test]
    fn lambda_histogram_sums_to_cells() {
        let g = complete(5);
        let p = peel(&VertexSpace::new(&g));
        assert_eq!(p.lambda_histogram().iter().sum::<usize>(), 5);
    }

    /// The serial loop without the ω₀ = 0 bypass: every cell goes
    /// through one all-cells bucket queue. The reference for [`peel`]
    /// and [`crate::algo::fnd::fnd`].
    fn all_cells_peel<B: PeelBackend>(space: &B) -> Peeling {
        let n = space.cell_count();
        let mut q = PeelBuckets::new(space.degrees());
        let mut lambda = vec![0u32; n];
        let mut order = Vec::with_capacity(n);
        let mut max_lambda = 0u32;
        while let Some((u, k)) = q.pop_min() {
            lambda[u as usize] = k;
            max_lambda = max_lambda.max(k);
            order.push(u);
            space.for_each_container(u, |others| {
                if others.iter().any(|&v| q.is_popped(v)) {
                    return;
                }
                for &v in others {
                    if q.key(v) > k {
                        q.decrement(v);
                    }
                }
            });
        }
        Peeling {
            lambda: lambda.into(),
            max_lambda,
            order,
        }
    }

    /// Serial `peel` and `fnd`, over the lazy and the indexed backend,
    /// give the reference loop's λ and order (with the ω₀ = 0 cells
    /// leading it in ascending id) and the hierarchy DFT builds from
    /// it. Returns how many ω₀ = 0 cells the space has.
    fn check_bypass<S: crate::space::PeelSpace + Sync>(space: &S) -> usize {
        let reference = all_cells_peel(space);
        let (hierarchy, _) = crate::algo::dft::dft(space, &reference);
        let degrees = space.degrees();
        let zeros: Vec<u32> = (0..space.cell_count() as u32)
            .filter(|&c| degrees[c as usize] == 0)
            .collect();
        assert_eq!(&reference.order[..zeros.len()], &zeros[..]);
        let index = crate::space::ContainerIndex::build(space, 2);
        let indexed = crate::space::IndexedSpace::new(space, &index);
        fn check<S: crate::space::PeelSpace>(
            space: &S,
            reference: &Peeling,
            hierarchy: &crate::hierarchy::Hierarchy,
            backend: &str,
        ) {
            let fnd = crate::algo::fnd::fnd(space);
            for (name, p) in [("peel", &peel(space)), ("fnd", &fnd.peeling)] {
                assert_eq!(p.lambda, reference.lambda, "{backend} {name} λ");
                assert_eq!(p.order, reference.order, "{backend} {name} order");
                assert_eq!(p.max_lambda, reference.max_lambda, "{backend} {name}");
            }
            assert_eq!(&fnd.hierarchy, hierarchy, "{backend} fnd hierarchy");
        }
        check(space, &reference, &hierarchy, "lazy");
        check(&indexed, &reference, &hierarchy, "indexed");
        zeros.len()
    }

    #[test]
    fn serial_loops_bypass_containerless_cells() {
        // a star with one triangle among its first leaves, plus two
        // isolated vertices
        let mut edges: Vec<(u32, u32)> = (1..=8).map(|v| (0, v)).collect();
        edges.push((1, 2));
        let star = CsrGraph::from_edges(11, &edges);
        let graphs = [
            nucleus_gen::ba::barabasi_albert(2000, 3, 7),
            star,
            nucleus_gen::karate::karate_club(),
        ];
        let mut zeros = 0;
        for g in &graphs {
            zeros += check_bypass(&VertexSpace::new(g));
            zeros += check_bypass(&crate::space::VertexTriangleSpace::new(g));
            zeros += check_bypass(&EdgeSpace::new(g));
            zeros += check_bypass(&crate::space::EdgeK4Space::new(g));
            zeros += check_bypass(&TriangleSpace::new(g));
        }
        assert!(zeros > 1000, "the inputs must be rich in ω₀ = 0 cells");
    }
}
