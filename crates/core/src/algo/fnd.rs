//! FastNucleusDecomposition (Algorithms 8 and 9 of the paper): build the
//! hierarchy **during peeling**, with no traversal at all.
//!
//! While a cell `u` is peeled, its containers are inspected. A container
//! whose cells are all unprocessed drives the usual ω decrements; a
//! container with processed cells instead reveals connectivity: the
//! processed cell `w` of minimum λ either shares `u`'s λ (u and w are in
//! the same — possibly non-maximal — sub-nucleus `T*`, so their
//! components are unioned) or has a smaller λ (the pair of sub-nuclei is
//! appended to the `ADJ` list, ordered later by `BuildHierarchy`).
//!
//! The module splits FND at the paper's seam, each half written once:
//! [`fnd_classify`] is Alg. 8, the extended peeling loop, and
//! [`build_hierarchy`] is Alg. 9, which turns the `ADJ` list into the
//! skeleton's hierarchy links. [`fnd`], the path every session runs,
//! runs the two in sequence and canonicalizes the skeleton. The loop
//! starts like [`crate::peel::peel`]'s, with the ω₀ = 0 bypass: cells in
//! no container take λ = 0 and lead the order without entering the
//! queue, and own no sub-nucleus.

use std::time::{Duration, Instant};

use crate::hierarchy::{Hierarchy, NO_NODE};
use crate::peel::{serial_start, Peeling};
use crate::skeleton::Skeleton;
use crate::space::{PeelBackend, PeelSpace};

/// Counters reported alongside the FND hierarchy (Table 3 columns).
#[derive(Clone, Copy, Debug, Default)]
pub struct FndStats {
    /// Number of (possibly non-maximal) sub-nuclei |T*_{r,s}|.
    pub subnuclei: usize,
    /// |c↓(T*_{r,s})|: recorded connections from higher-λ sub-nuclei to
    /// lower-λ ones (the length of `ADJ`).
    pub adj_connections: usize,
}

/// Full FND outcome, with the paper's phase split (Figure 6): `peel_time`
/// covers the extended peeling loop, `post_time` covers `BuildHierarchy`
/// plus hierarchy finalization.
#[derive(Debug)]
pub struct FndOutcome {
    /// λ values and processing order (same contract as [`crate::peel::peel`]).
    pub peeling: Peeling,
    /// The canonical hierarchy.
    pub hierarchy: Hierarchy,
    /// |T*| and |c↓(T*)|.
    pub stats: FndStats,
    /// Extended-peeling wall time.
    pub peel_time: Duration,
    /// Post-processing (BuildHierarchy + report) wall time.
    pub post_time: Duration,
}

/// Tuning knobs for [`fnd_with_options`]; the defaults follow the paper.
#[derive(Clone, Copy, Debug, Default)]
pub struct FndOptions {
    /// Skip pushing an `ADJ` pair identical to the immediately preceding
    /// one. The paper pushes raw (duplicates are absorbed by `Find-r`
    /// in BuildHierarchy); deduping trades a branch per container for a
    /// shorter list — measured in `bench_micro` (ablation).
    pub dedup_adjacent: bool,
}

/// Runs FastNucleusDecomposition on a space with default options.
///
/// ```
/// use nucleus_core::algo::fnd::fnd;
/// use nucleus_core::space::EdgeSpace;
///
/// // bowtie: two triangles sharing a vertex → two (2,3) nuclei,
/// // discovered with zero traversal
/// let g = nucleus_gen::paper::fig3_bowtie();
/// let out = fnd(&EdgeSpace::new(&g));
/// assert_eq!(out.hierarchy.nuclei_at(1).len(), 2);
/// assert_eq!(out.stats.subnuclei, 2);
/// assert_eq!(out.stats.adj_connections, 0); // single λ level
/// ```
pub fn fnd<S: PeelSpace>(space: &S) -> FndOutcome {
    fnd_with_options(space, FndOptions::default())
}

/// Runs FastNucleusDecomposition with explicit [`FndOptions`]: Alg. 8
/// ([`fnd_classify`]), then Alg. 9 ([`build_hierarchy`]), then the
/// canonical hierarchy.
pub fn fnd_with_options<S: PeelSpace>(space: &S, options: FndOptions) -> FndOutcome {
    let t0 = Instant::now();
    let FndClassified {
        peeling,
        skeleton: mut sk,
        adj,
    } = fnd_classify(space, options, FrontierOptions::default());
    let peel_time = t0.elapsed();

    let t1 = Instant::now();
    build_hierarchy(&mut sk, &adj, peeling.max_lambda, 1, 0);
    let stats = FndStats {
        subnuclei: sk.len(),
        adj_connections: adj.len(),
    };
    drop(adj);
    let hierarchy = sk.into_raw().into_hierarchy(
        space.r(),
        space.s(),
        peeling.lambda.clone(),
        peeling.max_lambda,
    );
    let post_time = t1.elapsed();

    FndOutcome {
        peeling,
        hierarchy,
        stats,
        peel_time,
        post_time,
    }
}

/// The last argument of [`fnd_classify`]. Both fields are ignored: FND
/// runs one serial loop. The type keeps the call the repository
/// benchmark's layer probe makes (`perfbench/src/build.rs`) compiling,
/// and goes once that probe stops making it.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrontierOptions {
    /// Ignored.
    pub threads: usize,
    /// Ignored.
    pub min_parallel_work: usize,
}

/// An FND run stopped just short of hierarchy assembly: the peeling,
/// the skeleton (one sub-nucleus per same-λ component, no hierarchy
/// links yet) and the `ADJ` pairs — exactly the inputs of
/// [`build_hierarchy`]. The phase bench clones the skeleton to time the
/// assembly pass alone.
#[derive(Debug)]
pub struct FndClassified {
    /// λ values and processing order.
    pub peeling: Peeling,
    /// Skeleton with components assigned but no hierarchy links yet.
    pub skeleton: Skeleton,
    /// `(higher-λ, lower-λ)` sub-nucleus pairs, in push order (adjacent
    /// duplicates skipped when the options ask for it).
    pub adj: Vec<(u32, u32)>,
}

/// Alg. 8, FND's extended peeling loop: peels like
/// [`crate::peel::peel`] and classifies every container of each peeled
/// cell on the way. Feed the result to [`build_hierarchy`] and then
/// [`Skeleton::into_raw`] to finish the decomposition, as [`fnd`] does.
/// `_frontier` is ignored (see [`FrontierOptions`]).
pub fn fnd_classify<B: PeelBackend>(
    space: &B,
    options: FndOptions,
    _frontier: FrontierOptions,
) -> FndClassified {
    let n = space.cell_count();
    // λ = 0 cells are in the order already (the ω₀ = 0 bypass) and own
    // no sub-nucleus; every cell the queue pops has λ ≥ 1.
    let (mut q, mut lambda, mut order) = serial_start(space.degrees());
    let mut max_lambda = 0u32;
    let mut sk = Skeleton::new(n);
    // `(higher-λ sub-nucleus, lower-λ sub-nucleus)` pairs; the first
    // component is patched after the cell's iteration if it was pushed
    // before the cell got its sub-nucleus (paper line 19).
    let mut adj: Vec<(u32, u32)> = Vec::new();

    while let Some((u, k)) = q.pop_min() {
        debug_assert!(k > 0, "ω₀ = 0 cells bypass the queue");
        lambda[u as usize] = k;
        max_lambda = max_lambda.max(k);
        order.push(u);
        let adj_start = adj.len();
        space.for_each_container(u, |others| {
            // Split the container into processed / unprocessed cells and
            // find the processed cell of minimum λ (paper lines 14-15).
            let mut w = NO_NODE;
            let mut w_lambda = u32::MAX;
            for &v in others {
                if q.is_popped(v) {
                    let lv = lambda[v as usize];
                    if lv < w_lambda {
                        w_lambda = lv;
                        w = v;
                    }
                }
            }
            if w == NO_NODE {
                // All unprocessed: the container is alive — ordinary
                // peeling decrements (lines 10-12).
                for &v in others {
                    if q.key(v) > k {
                        q.decrement(v);
                    }
                }
            } else if w_lambda == k {
                // u and w are strongly connected (this container has
                // λ_{r,s} = k): same T* (line 16-17).
                let cw = sk.comp[w as usize];
                debug_assert_ne!(cw, NO_NODE);
                let cu = sk.comp[u as usize];
                if cu == NO_NODE {
                    sk.comp[u as usize] = cw;
                } else if cu != cw {
                    sk.forest.union_r(cu, cw);
                }
            } else {
                // λ(w) < λ(u): containment relation, deferred (line 18).
                debug_assert!(w_lambda < k);
                let cw = sk.comp[w as usize];
                debug_assert_ne!(cw, NO_NODE, "processed cell in a container must have λ ≥ 1");
                let pair = (sk.comp[u as usize], cw);
                if !(options.dedup_adjacent && adj.last() == Some(&pair)) {
                    adj.push(pair);
                }
            }
        });
        // Line 19: ensure u owns a sub-nucleus, patch pending pairs.
        if sk.comp[u as usize] == NO_NODE {
            let sn = sk.new_subnucleus(k);
            sk.comp[u as usize] = sn;
        }
        let cu = sk.comp[u as usize];
        for pair in &mut adj[adj_start..] {
            if pair.0 == NO_NODE {
                pair.0 = cu;
            }
        }
    }

    FndClassified {
        peeling: Peeling {
            lambda,
            max_lambda,
            order,
        },
        skeleton: sk,
        adj,
    }
}

/// `BuildHierarchy` (Algorithm 9): bin the `ADJ` pairs by the λ of their
/// lower side and process bins in decreasing λ, attaching or merging
/// greatest ancestors — the same bottom-up discipline as DF-Traversal.
/// Within a bin, a higher-λ top attaches under the pair's lower top at
/// once; same-λ tops merge at the end of the bin. `_threads` and
/// `_min_parallel_work` are ignored: the pass runs on the calling
/// thread (see [`FrontierOptions`]).
pub fn build_hierarchy(
    sk: &mut Skeleton,
    adj: &[(u32, u32)],
    max_lambda: u32,
    _threads: usize,
    _min_parallel_work: usize,
) {
    if adj.is_empty() {
        return;
    }
    let mut bins: Vec<Vec<(u32, u32)>> = vec![Vec::new(); max_lambda as usize + 1];
    for &(s, t) in adj {
        debug_assert!(sk.lambda[s as usize] > sk.lambda[t as usize]);
        bins[sk.lambda[t as usize] as usize].push((s, t));
    }
    let mut merge: Vec<(u32, u32)> = Vec::new();
    for (k, bin) in bins.iter().enumerate().skip(1).rev() {
        merge.clear();
        for &(s, t) in bin {
            let sf = sk.forest.find_r(s);
            let tf = sk.forest.find_r(t);
            if sf == tf {
                continue;
            }
            debug_assert_eq!(
                sk.lambda[tf as usize] as usize, k,
                "lower-side root keeps bin λ"
            );
            if sk.lambda[sf as usize] > sk.lambda[tf as usize] {
                sk.forest.attach(sf, tf);
            } else {
                debug_assert_eq!(sk.lambda[sf as usize], sk.lambda[tf as usize]);
                merge.push((sf, tf));
            }
        }
        for &(a, b) in &merge {
            sk.forest.union_r(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peel::peel;
    use crate::space::{EdgeSpace, TriangleSpace, VertexSpace};
    use crate::test_graphs;

    /// FND must agree with the peeling λ and produce a valid hierarchy.
    fn check(g: &nucleus_graph::CsrGraph) {
        let vs = VertexSpace::new(g);
        let out = fnd(&vs);
        assert_eq!(out.peeling.lambda, peel(&vs).lambda);
        out.hierarchy.validate().expect("valid (1,2)");

        let es = EdgeSpace::new(g);
        let out = fnd(&es);
        assert_eq!(out.peeling.lambda, peel(&es).lambda);
        out.hierarchy.validate().expect("valid (2,3)");

        let ts = TriangleSpace::new(g);
        let out = fnd(&ts);
        assert_eq!(out.peeling.lambda, peel(&ts).lambda);
        out.hierarchy.validate().expect("valid (3,4)");
    }

    #[test]
    fn agrees_with_plain_peeling_and_validates() {
        check(&test_graphs::nested_cores());
        check(&nucleus_gen::paper::fig2_two_three_cores());
        check(&nucleus_gen::paper::fig3_bowtie());
        check(&nucleus_gen::karate::karate_club());
    }

    #[test]
    fn star_graph_late_center() {
        // The star's center is processed in the last two peeling steps;
        // FND must still produce a single 1-core (paper §4.3 caveat).
        let g = nucleus_gen::classic::star(6);
        let vs = VertexSpace::new(&g);
        let out = fnd(&vs);
        out.hierarchy.validate().expect("valid");
        assert_eq!(out.hierarchy.nuclei_at(1).len(), 1);
        assert_eq!(
            out.hierarchy
                .node(out.hierarchy.nuclei_at(1)[0])
                .subtree_cells,
            7
        );
        // non-maximal sub-nuclei may exceed the single maximal one
        assert!(out.stats.subnuclei >= 1);
    }

    #[test]
    fn planted_cliques_have_zero_adj() {
        // Bridged cliques: every edge's λ₃ is constant inside a clique and
        // bridges are triangle-free, so no cross-λ connections exist —
        // the uk-2005 regime from Table 3 (c↓ = 0).
        let g = nucleus_gen::planted::planted_cliques(4, &[5], 3);
        let es = EdgeSpace::new(&g);
        let out = fnd(&es);
        assert_eq!(out.stats.adj_connections, 0);
        assert_eq!(out.hierarchy.nuclei_at(3).len(), 4);
    }

    #[test]
    fn dedup_option_preserves_hierarchy_with_fewer_connections() {
        let g = nucleus_gen::karate::karate_club();
        let es = EdgeSpace::new(&g);
        let raw = fnd(&es);
        let deduped = fnd_with_options(
            &es,
            FndOptions {
                dedup_adjacent: true,
            },
        );
        assert_eq!(raw.hierarchy, deduped.hierarchy);
        assert!(deduped.stats.adj_connections <= raw.stats.adj_connections);
    }

    #[test]
    fn phase_times_are_populated() {
        let g = test_graphs::nested_cores();
        let vs = VertexSpace::new(&g);
        let out = fnd(&vs);
        // Times are small but must be measured (non-negative by type;
        // peel covers at least the main loop).
        assert!(out.peel_time.as_nanos() > 0);
    }
}
