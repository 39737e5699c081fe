//! FastNucleusDecomposition (Algorithms 8 and 9 of the paper): build the
//! hierarchy **during peeling**, with no traversal at all.
//!
//! While a cell `u` is peeled, its containers are inspected. A container
//! whose cells are all unprocessed drives the usual ω decrements; a
//! container with processed cells instead reveals connectivity: the
//! processed cell `w` of minimum λ either shares `u`'s λ (u and w are in
//! the same — possibly non-maximal — sub-nucleus `T*`, so their
//! components are unioned) or has a smaller λ (the pair of sub-nuclei is
//! a connection for the `ADJ` list, ordered later by `BuildHierarchy`).
//!
//! The module splits FND at the paper's seam, each half written once:
//! [`fnd_classify`] is Alg. 8, the extended peeling loop, and
//! [`build_hierarchy`] is Alg. 9, which turns the `ADJ` list into the
//! skeleton's hierarchy links. [`fnd`], the path every session runs,
//! runs the two in sequence and canonicalizes the skeleton. The loop
//! starts like [`crate::peel::peel`]'s, with the ω₀ = 0 bypass: cells in
//! no container take λ = 0 and lead the order without entering the
//! queue, and own no sub-nucleus.
//!
//! The loop keeps no λ or sub-nucleus array of its own: a popped cell's
//! λ is its key in the bucket queue and its sub-nucleus the tag in the
//! same slot ([`PeelBuckets::tag`]), so one slot read classifies a
//! processed co-cell. `ADJ` stores a connection only when it differs
//! from the last pair stored with the same lower sub-nucleus. The paper
//! pushes every connection (`Find-r` in Alg. 9 absorbs repeats), so
//! [`FndStats::adj_connections`] still counts them all; on rmat-s11
//! (3,4), 240,192 connections leave 43,974 stored pairs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nucleus_graph::bucket::PeelBuckets;

use crate::hierarchy::{Hierarchy, NO_NODE};
use crate::peel::Peeling;
use crate::skeleton::Skeleton;
use crate::space::{PeelBackend, PeelSpace};

/// Counters reported alongside the FND hierarchy (Table 3 columns).
#[derive(Clone, Copy, Debug, Default)]
pub struct FndStats {
    /// Number of (possibly non-maximal) sub-nuclei |T*_{r,s}|.
    pub subnuclei: usize,
    /// |c↓(T*_{r,s})|: connections found from higher-λ sub-nuclei to
    /// lower-λ ones — the length of the paper's `ADJ`, repeats included,
    /// though [`fnd_classify`] stores a repeat only once.
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

/// The second argument of [`fnd_classify`]. It has no fields: FND has no
/// knobs. The type keeps the call the repository benchmark's layer probe
/// makes (`perfbench/src/build.rs`) compiling.
#[derive(Clone, Copy, Debug, Default)]
pub struct FndOptions;

/// Runs FastNucleusDecomposition: Alg. 8 ([`fnd_classify`]), then Alg. 9
/// ([`build_hierarchy`]), then the canonical hierarchy.
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
    let t0 = Instant::now();
    let FndClassified {
        peeling,
        skeleton: mut sk,
        adj,
        connections,
    } = fnd_classify(space, FndOptions, FrontierOptions::default());
    let peel_time = t0.elapsed();

    let t1 = Instant::now();
    build_hierarchy(&mut sk, &adj, peeling.max_lambda, 1, 0);
    drop(adj);
    let stats = FndStats {
        subnuclei: sk.len(),
        adj_connections: connections,
    };
    let hierarchy = sk.into_raw().into_hierarchy(
        space.r(),
        space.s(),
        Arc::clone(&peeling.lambda),
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
    /// `(higher-λ, lower-λ)` sub-nucleus pairs in push order, each
    /// stored only when it differs from the last pair stored with the
    /// same lower side.
    pub adj: Vec<(u32, u32)>,
    /// Every connection the loop found, stored or not: |c↓(T*)|.
    pub connections: usize,
}

/// Stamp of a lower sub-nucleus no pair has been stored with yet.
const UNSTAMPED: u32 = NO_NODE - 1;
/// Stamp of a lower sub-nucleus whose last pair was stored by the cell
/// being peeled before that cell had a sub-nucleus. Neither stamp is
/// `NO_NODE` (a cell with no sub-nucleus yet) or a sub-nucleus id, since
/// [`fnd_classify`] takes at most `PENDING` cells.
const PENDING: u32 = NO_NODE - 2;

/// Alg. 8, FND's extended peeling loop: peels like
/// [`crate::peel::peel`] and classifies every container of each peeled
/// cell on the way. Feed the result to [`build_hierarchy`] and then
/// [`Skeleton::into_raw`] to finish the decomposition, as [`fnd`] does.
/// The arguments after `space` are ignored (see [`FndOptions`] and
/// [`FrontierOptions`]).
///
/// A popped cell's λ is its queue key and its sub-nucleus its queue tag,
/// so [`Skeleton::comp`] and [`Peeling::lambda`] are read off the queue
/// once the loop ends. Each lower sub-nucleus `t` keeps a stamp: the
/// higher side of the last pair stored with it. A connection `(h, t)`
/// whose stamp is `h` is counted and not stored again.
pub fn fnd_classify<B: PeelBackend>(
    space: &B,
    _options: FndOptions,
    _frontier: FrontierOptions,
) -> FndClassified {
    let n = space.cell_count();
    assert!(n <= PENDING as usize, "FND takes at most {PENDING} cells");
    // λ = 0 cells are in the order already (the ω₀ = 0 bypass) and own
    // no sub-nucleus; every cell the queue pops has λ ≥ 1.
    let (mut q, mut order) = PeelBuckets::skipping_zeros(space.degrees());
    let first_popped = order.len();
    let mut max_lambda = 0u32;
    // `comp` is filled from the queue's tags at the end.
    let mut sk = Skeleton::new(0);
    let mut adj: Vec<(u32, u32)> = Vec::new();
    // One stamp per sub-nucleus, reserved once for the most the loop can
    // make (one per queued cell). Grown by doubling in step with the
    // skeleton's four per-sub-nucleus vectors, its reallocations left
    // heap holes that raised the peak RSS of a 240 k-edge (2,3) build by
    // 1–3 MiB.
    let mut stamp: Vec<u32> = Vec::with_capacity(q.len());
    let mut connections = 0usize;

    while let Some((u, k)) = q.pop_min() {
        debug_assert!(k > 0, "ω₀ = 0 cells bypass the queue");
        max_lambda = max_lambda.max(k);
        order.push(u);
        // u's sub-nucleus, once a same-λ container names one. The pairs
        // in `adj[adj_start..pending_end]` were stored before that: their
        // higher side holds their lower side's previous stamp until it
        // is patched below (paper line 19).
        let mut cu = NO_NODE;
        let adj_start = adj.len();
        let mut pending_end = adj_start;
        space.for_each_container(u, |others| {
            // Split the container into processed / unprocessed cells and
            // find the processed cell of minimum λ (paper lines 14-15).
            let mut w = NO_NODE;
            let mut w_lambda = u32::MAX;
            for &v in others {
                if q.is_popped(v) {
                    let lv = q.key(v);
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
                return;
            }
            // w's slot holds its λ and its sub-nucleus.
            let cw = q.tag(w);
            if w_lambda == k {
                // u and w are strongly connected (this container has
                // λ_{r,s} = k): same T* (line 16-17).
                if cu == NO_NODE {
                    cu = cw;
                } else if cu != cw {
                    sk.forest.union_r(cu, cw);
                }
                return;
            }
            // λ(w) < λ(u): containment relation, deferred (line 18).
            debug_assert!(w_lambda < k);
            connections += 1;
            let last = stamp[cw as usize];
            if last == PENDING || last == cu {
                // A repeat: u met cw earlier in this loop, or cw's last
                // pair is (cu, cw) already.
                return;
            }
            if cu == NO_NODE {
                adj.push((last, cw));
                stamp[cw as usize] = PENDING;
                pending_end = adj.len();
            } else {
                adj.push((cu, cw));
                stamp[cw as usize] = cu;
            }
        });
        // Line 19: ensure u owns a sub-nucleus, patch pending pairs. A
        // pending pair whose lower side last stored u's sub-nucleus
        // repeats that pair and goes.
        if cu == NO_NODE {
            cu = sk.new_subnucleus(k);
            stamp.push(UNSTAMPED);
        }
        q.set_tag(u, cu);
        let mut kept = adj_start;
        for i in adj_start..pending_end {
            let (last, t) = adj[i];
            stamp[t as usize] = cu;
            if last != cu {
                adj[kept] = (cu, t);
                kept += 1;
            }
        }
        adj.drain(kept..pending_end);
    }
    drop(stamp);

    sk.comp = vec![NO_NODE; n];
    for &x in &order[first_popped..] {
        sk.comp[x as usize] = q.tag(x);
    }
    FndClassified {
        peeling: Peeling {
            lambda: q.into_keys(),
            max_lambda,
            order,
        },
        skeleton: sk,
        adj,
        connections,
    }
}

/// `BuildHierarchy` (Algorithm 9): bin the `ADJ` pairs by the λ of their
/// lower side and process bins in decreasing λ, attaching or merging
/// greatest ancestors — the same bottom-up discipline as DF-Traversal.
/// Within a bin, a higher-λ top attaches under the pair's lower top at
/// once; same-λ tops merge at the end of the bin. The bins are one
/// counting-sorted copy of `adj`, in push order within each bin.
/// `_threads` and `_min_parallel_work` are ignored: the pass runs on the
/// calling thread (see [`FrontierOptions`]).
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
    // Bin k is `pairs[start[k]..start[k + 1]]`.
    let bin_of = |t: u32| sk.lambda[t as usize] as usize;
    let mut start = vec![0usize; max_lambda as usize + 2];
    for &(_, t) in adj {
        start[bin_of(t) + 1] += 1;
    }
    for k in 1..start.len() {
        start[k] += start[k - 1];
    }
    let mut next = start.clone();
    let mut pairs = vec![(0u32, 0u32); adj.len()];
    for &(s, t) in adj {
        debug_assert!(sk.lambda[s as usize] > sk.lambda[t as usize]);
        let at = &mut next[bin_of(t)];
        pairs[*at] = (s, t);
        *at += 1;
    }
    let mut merge: Vec<(u32, u32)> = Vec::new();
    for k in (1..=max_lambda as usize).rev() {
        merge.clear();
        for &(s, t) in &pairs[start[k]..start[k + 1]] {
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

    /// Karate's Table 3 counters, pinned from the loop that pushed every
    /// connection to `ADJ`, and a stored `ADJ` with no pair in it twice.
    #[test]
    fn karate_stats_are_pinned_and_stored_adj_has_no_repeats() {
        fn check<S: PeelSpace>(space: &S, subnuclei: usize, connections: usize, stored: usize) {
            let out = fnd(space);
            assert_eq!(out.stats.subnuclei, subnuclei, "|T*|");
            assert_eq!(out.stats.adj_connections, connections, "|c↓(T*)|");
            let cl = fnd_classify(space, FndOptions, FrontierOptions::default());
            assert_eq!(cl.connections, connections);
            assert_eq!(cl.adj.len(), stored, "stored ADJ pairs");
            let mut pairs = cl.adj.clone();
            pairs.sort_unstable();
            pairs.dedup();
            assert_eq!(pairs.len(), stored, "a pair stored twice");
        }
        let g = nucleus_gen::karate::karate_club();
        check(&VertexSpace::new(&g), 19, 41, 22);
        check(&crate::space::VertexTriangleSpace::new(&g), 19, 34, 18);
        check(&EdgeSpace::new(&g), 25, 14, 14);
        check(&crate::space::EdgeK4Space::new(&g), 4, 0, 0);
        check(&TriangleSpace::new(&g), 4, 0, 0);
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
