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
//! [`fnd`] is the path every session runs by default. Its loop starts
//! like [`crate::peel::peel`]'s, with the ω₀ = 0 bypass: cells in no
//! container take λ = 0 and lead the order without entering the queue,
//! and own no sub-nucleus.
//!
//! # The parallel path
//!
//! [`fnd_parallel_with`], an explicit opt-in
//! ([`crate::decompose::PeelEngine::Frontier`]), rides the frontier engine
//! ([`crate::peel::peel_with_sink`]) by fusing the classification above
//! into the per-cell container scan, with the engine's `(stamp, id)`
//! order as the processed-before relation. The key observation making
//! this legal: because every peeling order is λ-monotone, a container's
//! first-processed member always attains the container's λ (the minimum
//! member λ), so per container the classification outcome *at the
//! partition level* is order-independent — each of its min-λ members
//! past the first unions with an earlier one (chaining them into one
//! component regardless of which `w` won a tie), each higher-λ member
//! records one adjacency to that same component, and exactly the
//! first-processed member applies decrements. Same-λ unions go through
//! a lock-free [`ConcurrentSets`] over cells; cross-λ adjacencies
//! accumulate in per-worker buffers concatenated in deterministic range
//! order. A finalize pass ([`fnd_classify`]) then allocates one
//! sub-nucleus per component (in emission order) and resolves the
//! buffered pairs, and [`build_hierarchy`] assembles the skeleton —
//! producing the same canonical [`Hierarchy`] as [`fnd`], bit for bit,
//! at every thread count.
//!
//! # Parallel `BuildHierarchy`
//!
//! The assembly pass itself (Alg. 9) parallelizes its two read-heavy
//! phases while keeping every forest **mutation** sequential:
//!
//! 1. λ-binning of the `ADJ` pairs runs as per-worker bucket lists over
//!    balanced ranges, absorbed in range order — each bin ends up in
//!    exactly the order the serial pass would have pushed.
//! 2. Per bin, a read-only *hint* pass resolves every pair's greatest
//!    ancestors concurrently ([`nucleus_dsf::RootedForest::peek_r`]);
//!    the sequential drain then re-resolves from the hint (an ancestor
//!    on the pair's root path, so `find_r(hint)` is exact even after
//!    earlier pairs in the bin mutated the forest) and installs an O(1)
//!    compression shortcut per endpoint.
//!
//! Deliberate deviation from a fully concurrent drain: attach/merge
//! decisions depend on the forest's evolving rank/root state, so
//! free-running concurrent unions (e.g. through [`ConcurrentSets`])
//! would produce winner choices — and therefore `parent` links — that
//! vary with thread interleaving. The hint scheme keeps the *decision
//! sequence* exactly serial, which is what makes the hierarchy
//! bit-identical at every thread count.

use std::time::{Duration, Instant};

use nucleus_cliques::{balanced_ranges, fill_ranges_scoped};
use nucleus_dsf::ConcurrentSets;

use crate::hierarchy::{Hierarchy, NO_NODE};
use crate::peel::{peel_with_sink, serial_start, FrontierOptions, PeelSink, Peeling};
use crate::skeleton::Skeleton;
use crate::space::{PeelBackend, PeelCells, PeelSpace};

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

/// Runs FastNucleusDecomposition with explicit [`FndOptions`].
pub fn fnd_with_options<S: PeelSpace>(space: &S, options: FndOptions) -> FndOutcome {
    let t0 = Instant::now();
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
    let peel_time = t0.elapsed();

    let t1 = Instant::now();
    build_hierarchy(&mut sk, &adj, max_lambda, 1, usize::MAX);
    let stats = FndStats {
        subnuclei: sk.len(),
        adj_connections: adj.len(),
    };
    drop(adj);
    let raw = sk.into_raw();
    let hierarchy = raw.into_hierarchy(space.r(), space.s(), lambda.clone(), max_lambda);
    let post_time = t1.elapsed();

    FndOutcome {
        peeling: Peeling {
            lambda,
            max_lambda,
            order,
        },
        hierarchy,
        stats,
        peel_time,
        post_time,
    }
}

/// The FND peel sink: classifies each peeled cell's containers exactly
/// as the serial loop does, but against the engine's `(stamp, id)`
/// processed-before order — unions into the concurrent cell-level DSU,
/// adjacency intents into per-worker parts.
struct FndSink {
    /// Same-λ connectivity over *cells*; one final component per
    /// (possibly non-maximal) sub-nucleus.
    dsu: ConcurrentSets,
    /// `(higher-λ cell, lower-λ cell)` adjacency intents, in the
    /// engine's deterministic emission order; resolved to sub-nucleus
    /// pairs by the finalize pass.
    adj: Vec<(u32, u32)>,
}

impl<B: PeelBackend + ?Sized> PeelSink<B> for FndSink {
    type Part = Vec<(u32, u32)>;

    fn new_part(&self) -> Self::Part {
        Vec::new()
    }

    #[inline]
    fn scan_cell<D: Fn(u32) -> bool>(
        &self,
        space: &B,
        cells: &PeelCells,
        lambda: &[u32],
        u: u32,
        level: u32,
        stamp: u32,
        dec: &D,
        next: &mut Vec<u32>,
        part: &mut Self::Part,
    ) {
        space.for_each_container(u, |others| {
            // Find the processed co-cell of minimum λ (Alg. 8 lines
            // 14-15), "processed" meaning before `u` in (stamp, id)
            // order — ALIVE is u32::MAX, so unpeeled cells sort last.
            let mut w = NO_NODE;
            let mut w_lambda = u32::MAX;
            for &v in others {
                let s = cells.stamp(v);
                if s < stamp || (s == stamp && v < u) {
                    let lv = lambda[v as usize];
                    if lv < w_lambda {
                        w_lambda = lv;
                        w = v;
                    }
                }
            }
            if w == NO_NODE {
                // u is the container's first-processed cell: it owns
                // the ordinary peeling decrements (lines 10-12).
                for &v in others {
                    if dec(v) {
                        next.push(v);
                    }
                }
            } else if w_lambda == level {
                // Strong connection at this level (lines 16-17).
                self.dsu.union(u, w);
            } else {
                // λ(w) < λ(u): containment, deferred (line 18).
                debug_assert!(w_lambda < level);
                part.push((u, w));
            }
        });
    }

    fn absorb_part(&mut self, mut part: Self::Part) {
        self.adj.append(&mut part);
    }
}

/// Runs FastNucleusDecomposition through the frontier-parallel engine
/// with default [`FndOptions`]. See [`fnd_parallel_with`].
pub fn fnd_parallel<S: PeelSpace + Sync>(space: &S, threads: usize) -> FndOutcome {
    fnd_parallel_with(
        space,
        FndOptions::default(),
        FrontierOptions {
            threads,
            ..FrontierOptions::default()
        },
    )
}

/// Runs FastNucleusDecomposition on top of the frontier-parallel
/// peeling engine: λ-level rounds peel in parallel while a classifying
/// sink inspects containers on the fly, then a sequential finalize merges
/// the classified structure into the same canonical [`Hierarchy`] the
/// serial [`fnd`] produces (the peeling *order* differs within levels —
/// rounds emit ascending ids, the bucket queue its own positions — but
/// λ values and the hierarchy are identical).
///
/// ```
/// use nucleus_core::algo::fnd::{fnd, fnd_parallel};
/// use nucleus_core::space::{ContainerIndex, EdgeSpace, IndexedSpace};
///
/// let g = nucleus_gen::paper::fig3_bowtie();
/// let es = EdgeSpace::new(&g);
/// let index = ContainerIndex::build(&es, 2);
/// let m = IndexedSpace::new(&es, &index);
/// assert_eq!(fnd_parallel(&m, 2).hierarchy, fnd(&es).hierarchy);
/// ```
pub fn fnd_parallel_with<S: PeelSpace + Sync>(
    space: &S,
    options: FndOptions,
    frontier: FrontierOptions,
) -> FndOutcome {
    let threads = frontier.threads;
    let min_parallel = frontier.min_parallel_work;
    let FndClassified {
        peeling,
        skeleton: mut sk,
        adj,
        peel_time,
        resolve_time,
    } = fnd_classify(space, options, frontier);

    let t1 = Instant::now();
    build_hierarchy(&mut sk, &adj, peeling.max_lambda, threads, min_parallel);
    let stats = FndStats {
        subnuclei: sk.len(),
        adj_connections: adj.len(),
    };
    drop(adj);
    let raw = sk.into_raw();
    let hierarchy = raw.into_hierarchy(
        space.r(),
        space.s(),
        peeling.lambda.clone(),
        peeling.max_lambda,
    );
    let post_time = resolve_time + t1.elapsed();

    FndOutcome {
        peeling,
        hierarchy,
        stats,
        peel_time,
        post_time,
    }
}

/// A parallel FND run stopped just short of hierarchy assembly: the
/// peeling, the skeleton (one sub-nucleus per same-λ component,
/// allocated in emission order), and the resolved `ADJ` pairs — exactly
/// the inputs of [`build_hierarchy`]. Split out of
/// [`fnd_parallel_with`] so the assembly pass can be timed and re-run
/// in isolation (the phase benches clone the skeleton per iteration).
#[derive(Debug)]
pub struct FndClassified {
    /// λ values and processing order.
    pub peeling: Peeling,
    /// Skeleton with components assigned but no hierarchy links yet.
    pub skeleton: Skeleton,
    /// Resolved `(higher-λ, lower-λ)` sub-nucleus pairs, in emission
    /// order (deduped when the options asked for it).
    pub adj: Vec<(u32, u32)>,
    /// Extended-peeling wall time.
    pub peel_time: Duration,
    /// Finalize wall time (sub-nucleus allocation + `ADJ` resolution).
    pub resolve_time: Duration,
}

/// The classification half of [`fnd_parallel_with`]: peels through the
/// frontier engine with the FND sink, then finalizes components and
/// adjacency pairs. Feed the result to [`build_hierarchy`] (and
/// [`Skeleton::into_raw`]) to finish the decomposition.
pub fn fnd_classify<S: PeelSpace + Sync>(
    space: &S,
    options: FndOptions,
    frontier: FrontierOptions,
) -> FndClassified {
    let t0 = Instant::now();
    let n = space.cell_count();
    let mut sink = FndSink {
        dsu: ConcurrentSets::new(n),
        adj: Vec::new(),
    };
    let peeling = peel_with_sink(space, frontier, &mut sink);
    let peel_time = t0.elapsed();

    let t1 = Instant::now();
    // Finalize: one sub-nucleus per same-λ DSU component, allocated in
    // emission order so ids are deterministic across thread counts.
    let mut sk = Skeleton::new(n);
    let mut sn_of_root: Vec<u32> = vec![NO_NODE; n];
    for &u in &peeling.order {
        let k = peeling.lambda[u as usize];
        if k == 0 {
            // λ = 0 cells appear in no container; they carry no
            // sub-nucleus in the serial loop either (Alg. 8 line 19
            // runs only for k > 0).
            continue;
        }
        let root = sink.dsu.find(u) as usize;
        if sn_of_root[root] == NO_NODE {
            sn_of_root[root] = sk.new_subnucleus(k);
        }
        sk.comp[u as usize] = sn_of_root[root];
    }
    // Resolve adjacency intents to sub-nucleus pairs; both endpoints
    // have λ ≥ 1, so both components were assigned above. Intents are
    // independent, so the map parallelizes over disjoint chunks; the
    // optional dedup is a serial scan equivalent to the skip-on-push.
    let intents = std::mem::take(&mut sink.adj);
    let mut adj: Vec<(u32, u32)> = if frontier.threads > 1
        && !intents.is_empty()
        && intents.len() >= frontier.min_parallel_work
    {
        let mut out = vec![(0u32, 0u32); intents.len()];
        let ranges = balanced_ranges(&vec![1usize; intents.len()], frontier.threads);
        let comp = &sk.comp;
        fill_ranges_scoped(
            &mut out,
            ranges,
            |range| range.len(),
            |range, chunk| {
                for (slot, &(hi, lo)) in chunk.iter_mut().zip(&intents[range]) {
                    let pair = (comp[hi as usize], comp[lo as usize]);
                    debug_assert_ne!(pair.0, NO_NODE);
                    debug_assert_ne!(pair.1, NO_NODE);
                    *slot = pair;
                }
            },
        );
        out
    } else {
        intents
            .iter()
            .map(|&(hi, lo)| {
                let pair = (sk.comp[hi as usize], sk.comp[lo as usize]);
                debug_assert_ne!(pair.0, NO_NODE);
                debug_assert_ne!(pair.1, NO_NODE);
                pair
            })
            .collect()
    };
    if options.dedup_adjacent {
        adj.dedup();
    }
    let resolve_time = t1.elapsed();

    FndClassified {
        peeling,
        skeleton: sk,
        adj,
        peel_time,
        resolve_time,
    }
}

/// The shared drain decision for one `ADJ` pair whose endpoints resolved
/// to tops `sf` / `tf` in bin `k`: attach across λ levels immediately,
/// defer same-λ merges to the end of the bin.
#[inline]
fn drain_pair(sk: &mut Skeleton, merge: &mut Vec<(u32, u32)>, k: usize, sf: u32, tf: u32) {
    if sf == tf {
        return;
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

/// λ-bins the `ADJ` pairs with worker threads: per-worker bucket lists
/// over balanced ranges, absorbed in range order — bin contents end up
/// in exactly the adj (= serial push) order.
fn bin_pairs_parallel(
    sk: &Skeleton,
    adj: &[(u32, u32)],
    nbins: usize,
    threads: usize,
) -> Vec<Vec<(u32, u32)>> {
    let ranges = balanced_ranges(&vec![1usize; adj.len()], threads);
    let parts: Vec<Vec<Vec<(u32, u32)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                let lambda = &sk.lambda;
                scope.spawn(move || {
                    let mut bins = vec![Vec::new(); nbins];
                    for &(s, t) in &adj[range] {
                        debug_assert!(lambda[s as usize] > lambda[t as usize]);
                        bins[lambda[t as usize] as usize].push((s, t));
                    }
                    bins
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut bins = vec![Vec::new(); nbins];
    for part in parts {
        for (bin, mut local) in bins.iter_mut().zip(part) {
            bin.append(&mut local);
        }
    }
    bins
}

/// `BuildHierarchy` (Algorithm 9): bin the `ADJ` pairs by the λ of their
/// lower side and process bins in decreasing λ, attaching or merging
/// greatest ancestors — the same bottom-up discipline as DF-Traversal.
///
/// With `threads > 1` and at least `min_parallel_work` pairs, the two
/// read-heavy phases run on worker threads (λ-binning via per-worker
/// buckets absorbed in range order; per-bin greatest-ancestor *hints*
/// via the read-only [`nucleus_dsf::RootedForest::peek_r`]) while every
/// forest mutation stays on the calling thread, re-resolving each hint
/// with `find_r` — a hint is an ancestor on its endpoint's root path,
/// so the re-resolution is exact even after earlier pairs in the bin
/// mutated the forest. The attach/merge decision sequence is therefore
/// exactly the serial one, making the resulting skeleton (`parent`
/// links, sub-nucleus λ, components) **bit-identical** at every thread
/// count; see the module docs for why a fully concurrent drain was
/// rejected.
pub fn build_hierarchy(
    sk: &mut Skeleton,
    adj: &[(u32, u32)],
    max_lambda: u32,
    threads: usize,
    min_parallel_work: usize,
) {
    if adj.is_empty() {
        return;
    }
    let parallel = threads > 1 && adj.len() >= min_parallel_work;
    let nbins = max_lambda as usize + 1;
    let mut bins: Vec<Vec<(u32, u32)>> = if parallel {
        bin_pairs_parallel(sk, adj, nbins, threads)
    } else {
        let mut bins = vec![Vec::new(); nbins];
        for &(s, t) in adj {
            debug_assert!(sk.lambda[s as usize] > sk.lambda[t as usize]);
            bins[sk.lambda[t as usize] as usize].push((s, t));
        }
        bins
    };
    let mut merge: Vec<(u32, u32)> = Vec::new();
    let mut hints: Vec<(u32, u32)> = Vec::new();
    for k in (1..=max_lambda as usize).rev() {
        merge.clear();
        // Taking the bin out lets us mutate the forest while iterating.
        let bin = std::mem::take(&mut bins[k]);
        if parallel && bin.len() >= min_parallel_work.max(1) {
            // Read-only hint pass: pre-resolve both tops concurrently.
            hints.clear();
            hints.resize(bin.len(), (0, 0));
            let ranges = balanced_ranges(&vec![1usize; bin.len()], threads);
            let forest = &sk.forest;
            let bin_ref = &bin[..];
            fill_ranges_scoped(
                &mut hints,
                ranges,
                |range| range.len(),
                |range, chunk| {
                    for (slot, &(s, t)) in chunk.iter_mut().zip(&bin_ref[range]) {
                        *slot = (forest.peek_r(s), forest.peek_r(t));
                    }
                },
            );
            for (&(s, t), &(hs, ht)) in bin.iter().zip(&hints) {
                let sf = sk.forest.find_r(hs);
                let tf = sk.forest.find_r(ht);
                // find_r walked only from the hint; shortcut the full
                // endpoints so later peeks stay near-O(1).
                sk.forest.compress_to(s, sf);
                sk.forest.compress_to(t, tf);
                drain_pair(sk, &mut merge, k, sf, tf);
            }
        } else {
            for (s, t) in bin {
                let sf = sk.forest.find_r(s);
                let tf = sk.forest.find_r(t);
                drain_pair(sk, &mut merge, k, sf, tf);
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

    /// Parallel FND must produce the serial hierarchy bit for bit —
    /// across thread counts, with the spawn path forced, and with the
    /// hybrid drain off, always-on, and mixed.
    fn check_parallel_matches_serial(g: &nucleus_graph::CsrGraph) {
        fn check<S: crate::space::PeelSpace + Sync>(space: &S) {
            let serial = fnd(space);
            let index = crate::space::ContainerIndex::build(space, 2);
            let m = crate::space::IndexedSpace::new(space, &index);
            for serial_round_threshold in [0, 3, usize::MAX] {
                for threads in [1, 2, 8] {
                    let fopts = crate::peel::FrontierOptions {
                        threads,
                        min_parallel_work: 0,
                        serial_round_threshold,
                    };
                    let par = fnd_parallel_with(&m, FndOptions::default(), fopts);
                    let tag = format!("{threads} threads, drain < {serial_round_threshold}");
                    assert_eq!(par.peeling.lambda, serial.peeling.lambda, "λ, {tag}");
                    assert_eq!(par.hierarchy, serial.hierarchy, "hierarchy, {tag}");
                    par.hierarchy.validate().expect("valid parallel hierarchy");
                }
            }
        }
        check(&VertexSpace::new(g));
        check(&EdgeSpace::new(g));
        check(&TriangleSpace::new(g));
    }

    #[test]
    fn parallel_fnd_matches_serial_hierarchy() {
        check_parallel_matches_serial(&test_graphs::nested_cores());
        check_parallel_matches_serial(&nucleus_gen::paper::fig2_two_three_cores());
        check_parallel_matches_serial(&nucleus_gen::paper::fig3_bowtie());
        check_parallel_matches_serial(&nucleus_gen::karate::karate_club());
        check_parallel_matches_serial(&nucleus_gen::classic::star(6));
    }

    #[test]
    fn parallel_fnd_dedup_preserves_hierarchy() {
        let g = nucleus_gen::karate::karate_club();
        let es = EdgeSpace::new(&g);
        let index = crate::space::ContainerIndex::build(&es, 2);
        let m = crate::space::IndexedSpace::new(&es, &index);
        let fopts = crate::peel::FrontierOptions {
            threads: 2,
            min_parallel_work: 0,
            serial_round_threshold: 0,
        };
        let raw = fnd_parallel_with(&m, FndOptions::default(), fopts);
        let deduped = fnd_parallel_with(
            &m,
            FndOptions {
                dedup_adjacent: true,
            },
            fopts,
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
