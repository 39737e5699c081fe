//! Parallel triangle counting with `std::thread::scope` — a first step
//! toward the paper's closing future-work item ("adapting the existing
//! parallel peeling algorithms for the hierarchy computation"). The
//! clique-enumeration half of the peeling phase parallelizes trivially;
//! this module provides it without any extra dependency.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

use nucleus_graph::CsrGraph;

use crate::four_cliques::k4_degree_of_edge;
use crate::triangle_index::TriangleIndex;
use crate::triangles::{for_each_triangle_in, OrientedAdjacency, TriangleList};

/// Splits `0..weights.len()` into at most `parts` contiguous ranges of
/// approximately equal total weight (`weights[i]` per item). The ranges
/// are disjoint, in order, and cover every index; at most one range is
/// returned for an empty input. Used to hand each worker thread a
/// comparable share of enumeration work.
pub fn balanced_ranges(weights: &[usize], parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let total: usize = weights.iter().sum();
    let per_part = total.div_ceil(parts).max(1);
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0usize;
    for (i, w) in weights.iter().enumerate() {
        // Once parts - 1 ranges are cut, everything left is the last one
        // (zero-weight tails used to overflow the cap here).
        if out.len() + 1 == parts {
            break;
        }
        acc += w;
        if acc >= per_part {
            out.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < weights.len() || out.is_empty() {
        out.push(start..weights.len());
    }
    debug_assert!(out.len() <= parts);
    out
}

/// Splits the cells of a CSR into at most `parts` contiguous ranges of
/// about equal record count, given its record `offsets` (the prefix
/// sum, `cells + 1` entries). Like [`balanced_ranges`], the ranges are
/// disjoint, in order, non-empty and cover every cell (one empty range
/// for zero cells); the cuts are binary searches over the prefix sum,
/// so no per-cell weight vector is allocated.
pub(crate) fn offset_ranges(offsets: &[usize], parts: usize) -> Vec<Range<usize>> {
    let cells = offsets.len() - 1;
    let parts = parts.max(1);
    let total = offsets[cells];
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    for i in 1..parts {
        let cut = offsets.partition_point(|&o| o < total * i / parts);
        if cut > start {
            out.push(start..cut);
            start = cut;
        }
    }
    if start < cells || out.is_empty() {
        out.push(start..cells);
    }
    out
}

/// Splits `out` into one disjoint chunk per range and runs
/// `work(range, chunk)` on a scoped worker thread per chunk.
///
/// `ranges` must be the contiguous, in-order cover of `0..n` that
/// [`balanced_ranges`] produces, and `chunk_len(&range)` must give each
/// range's share of `out` (the shares must tile `out` front to back).
/// This keeps the `split_at_mut` cursor arithmetic every parallel fill
/// needs in one audited place.
pub fn fill_ranges_scoped<T, L, W>(out: &mut [T], ranges: Vec<Range<usize>>, chunk_len: L, work: W)
where
    T: Send,
    L: Fn(&Range<usize>) -> usize,
    W: Fn(Range<usize>, &mut [T]) + Sync,
{
    fill_ranges_with_scratch(
        out,
        ranges,
        chunk_len,
        |_| (),
        |range, chunk, _| work(range, chunk),
    );
}

/// [`fill_ranges_scoped`] for a kernel that needs scratch space per
/// worker, such as a vertex table: `scratch(&range)` builds each
/// range's on the caller's thread, and `work(range, chunk, scratch)`
/// gets its own. Built in the workers instead, the (3,4) kernels'
/// vertex tables left about one build-nucleus34 run in four (seed 2,
/// on a 2-CPU host) with a peak RSS over 5 MiB higher, held by the
/// workers' malloc arenas.
fn fill_ranges_with_scratch<T, S, L, B, W>(
    out: &mut [T],
    ranges: Vec<Range<usize>>,
    chunk_len: L,
    scratch: B,
    work: W,
) where
    T: Send,
    S: Send,
    L: Fn(&Range<usize>) -> usize,
    B: Fn(&Range<usize>) -> S,
    W: Fn(Range<usize>, &mut [T], &mut S) + Sync,
{
    let scratch: Vec<S> = ranges.iter().map(scratch).collect();
    std::thread::scope(|scope| {
        let mut rest: &mut [T] = out;
        for (range, mut scratch) in ranges.into_iter().zip(scratch) {
            let (chunk, tail) = rest.split_at_mut(chunk_len(&range));
            rest = tail;
            let work = &work;
            scope.spawn(move || work(range, chunk, &mut scratch));
        }
    });
}

/// [`fill_ranges_scoped`] over **two** output buffers filled in
/// lockstep: splits `out_a` and `out_b` into one disjoint chunk pair per
/// range (`chunk_lens[i]` elements each, so the chunks must tile both
/// buffers front to back) and runs `work(range, chunk_a, chunk_b)` on a
/// scoped worker thread per pair. Used by builders that emit two
/// parallel arrays per item, like [`TriangleList::build_with_threads`].
pub fn fill_ranges_pair_scoped<A, B, W>(
    out_a: &mut [A],
    out_b: &mut [B],
    ranges: Vec<Range<usize>>,
    chunk_lens: &[usize],
    work: W,
) where
    A: Send,
    B: Send,
    W: Fn(Range<usize>, &mut [A], &mut [B]) + Sync,
{
    assert_eq!(ranges.len(), chunk_lens.len(), "one chunk size per range");
    std::thread::scope(|scope| {
        let mut rest_a: &mut [A] = out_a;
        let mut rest_b: &mut [B] = out_b;
        for (range, &len) in ranges.into_iter().zip(chunk_lens) {
            let (chunk_a, tail_a) = rest_a.split_at_mut(len);
            let (chunk_b, tail_b) = rest_b.split_at_mut(len);
            rest_a = tail_a;
            rest_b = tail_b;
            let work = &work;
            scope.spawn(move || work(range, chunk_a, chunk_b));
        }
    });
}

/// Per-vertex weights for splitting a sweep over `oriented` with
/// [`balanced_ranges`]. The table kernel
/// ([`crate::triangles::for_each_triangle_in`]) spends
/// 2·|out(u)| + Σ_{v ∈ out(u)} |out(v)| at root `u`: it sets and clears
/// out(u) in its vertex table and scans each out(v) once. Out-degrees
/// are bounded by the degeneracy, so |out(u)|² + |out(u)| is a
/// serviceable proxy that needs no pass over the arcs.
pub(crate) fn oriented_weights(oriented: &OrientedAdjacency) -> Vec<usize> {
    (0..oriented.vertex_count() as u32)
        .map(|u| {
            let d = oriented.out(u).len();
            d * d + d
        })
        .collect()
}

/// Runs `work(range, tally)` on one scoped worker per range, each
/// counting into a private zeroed tally of `len` counters, and returns
/// the tallies in range order — so the counting kernels need no atomics
/// on their hot paths. The caller's thread allocates the tallies, so
/// ones kept past the count do not pin memory in the workers' malloc
/// arenas.
pub(crate) fn count_tallies<W>(ranges: &[Range<usize>], len: usize, work: W) -> Vec<Vec<u32>>
where
    W: Fn(Range<usize>, &mut [u32]) + Sync,
{
    let mut tallies: Vec<Vec<u32>> = ranges.iter().map(|_| vec![0u32; len]).collect();
    std::thread::scope(|scope| {
        for (range, tally) in ranges.iter().cloned().zip(&mut tallies) {
            let work = &work;
            scope.spawn(move || work(range, tally));
        }
    });
    tallies
}

/// Turns per-worker tallies of `len` counters into per-worker write
/// cursors in place. `start(i, count)` sees item `i`'s summed count and
/// returns the first of its slots; worker `k`'s cursor at `i` becomes
/// that slot plus the counts of workers `0..k` at `i`, so the workers'
/// writes to `i` tile its slots in worker order. Every slot must fit a
/// `u32`.
pub(crate) fn tallies_to_cursors(
    tallies: &mut [Vec<u32>],
    len: usize,
    mut start: impl FnMut(usize, u32) -> usize,
) {
    for i in 0..len {
        let count = tallies.iter().map(|tally| tally[i]).sum();
        let mut at = start(i, count) as u32;
        for cursor in tallies.iter_mut() {
            let count = cursor[i];
            cursor[i] = at;
            at += count;
        }
    }
}

/// The element-wise sum of `tallies`, each `len` counters long.
fn sum_tallies(tallies: &[Vec<u32>], len: usize) -> Vec<u32> {
    let mut total = vec![0u32; len];
    for tally in tallies {
        for (t, p) in total.iter_mut().zip(tally) {
            *t += p;
        }
    }
    total
}

/// Counts triangles using `threads` worker threads.
pub fn triangle_count_parallel(g: &CsrGraph, threads: usize) -> u64 {
    let oriented = OrientedAdjacency::build(g);
    let ranges = balanced_ranges(&oriented_weights(&oriented), threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ranges.len());
        for range in ranges {
            let oriented = &oriented;
            handles.push(scope.spawn(move || {
                let mut count = 0u64;
                for_each_triangle_in(oriented, range, |_, _, _, _, _, _| count += 1);
                count
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .sum()
    })
}

/// Computes per-edge triangle supports using `threads` worker threads.
/// Each worker accumulates into a private array; partials are summed at
/// the end (no atomics on the hot path).
pub fn edge_supports_parallel(g: &CsrGraph, threads: usize) -> Vec<u32> {
    SupportTallies::count(OrientedAdjacency::build(g), threads).supports()
}

/// Per-edge triangle supports as one oriented listing's workers counted
/// them: a private tally per worker, kept with the orientation and the
/// root ranges they were counted over. [`SupportTallies::supports`]
/// sums them; [`edge_companion_records`] lists the same triangles over
/// the same ranges again and turns each tally into its worker's private
/// write cursors, so that scatter shares no counter between workers.
pub struct SupportTallies {
    oriented: OrientedAdjacency,
    ranges: Vec<Range<usize>>,
    tallies: Vec<Vec<u32>>,
}

impl SupportTallies {
    /// Lists every triangle of `oriented` on up to `threads` workers,
    /// each over one root range of [`balanced_ranges`] and counting the
    /// supports of its triangles' edges into a private tally.
    pub fn count(oriented: OrientedAdjacency, threads: usize) -> Self {
        let ranges = balanced_ranges(&oriented_weights(&oriented), threads);
        let tallies = count_tallies(&ranges, oriented.edge_count(), |range, support| {
            for_each_triangle_in(&oriented, range, |_, _, _, e1, e2, e3| {
                support[e1 as usize] += 1;
                support[e2 as usize] += 1;
                support[e3 as usize] += 1;
            });
        });
        SupportTallies {
            oriented,
            ranges,
            tallies,
        }
    }

    /// The per-edge supports (the tallies summed), indexed by edge id.
    pub fn supports(&self) -> Vec<u32> {
        sum_tallies(&self.tallies, self.oriented.edge_count())
    }
}

/// The (2,3) container records of every edge, filled from one oriented
/// triangle listing: for edge `e = {u, v}` with `u < v`, one
/// `[id(u, w), id(v, w)]` pair per triangle `{u, v, w}`, ascending in
/// `w`, edges back to back over `offsets` (the prefix sum of the edge
/// supports, counted in pairs). That is the order a merge of the full
/// neighbour lists of `u` and `v` emits, at O(m · degeneracy) for all
/// edges instead of O(Σ deg²).
///
/// The listing runs again over the ranges `tallies` was counted over,
/// one worker per range. Each worker's tally becomes its private
/// cursors in place: worker `k` writes edge `e`'s pairs right after
/// those of workers `0..k`, so its cursor starts at `offsets[e]` plus
/// their summed counts, and every write is a plain increment plus two
/// relaxed stores into slots no other worker touches. Sorting each
/// edge's pairs by third vertex (unique within an edge), on `threads`
/// workers, then puts them in the merge order. The scope join publishes
/// the stores before the sort reads them.
///
/// # Panics
/// When `offsets` is not the prefix sum of the supports `tallies`
/// counted (checked before any write), `tallies` was not counted over
/// an orientation of `g`, or the graph has 2³² or more pairs (over
/// 32 GiB of records).
pub fn edge_companion_records(
    g: &CsrGraph,
    tallies: SupportTallies,
    offsets: &[usize],
    threads: usize,
) -> Vec<u32> {
    let m = g.m();
    assert_eq!(offsets.len(), m + 1, "one offset per edge, plus the total");
    let SupportTallies {
        oriented,
        ranges,
        tallies: mut cursors,
    } = tallies;
    assert_eq!(oriented.edge_count(), m, "tallies must count `g`'s edges");
    assert!(
        u32::try_from(offsets[m]).is_ok(),
        "u32 cursors must address every pair"
    );
    // Counts short of an edge's offsets would leave zeroed pairs,
    // counts past them spill into the next edge's slots.
    tallies_to_cursors(&mut cursors, m, |e, count| {
        assert!(
            offsets[e] + count as usize == offsets[e + 1],
            "offsets must be the edge supports"
        );
        offsets[e]
    });
    let slots: Vec<AtomicU32> = (0..2 * offsets[m]).map(|_| AtomicU32::new(0)).collect();
    std::thread::scope(|scope| {
        for (range, mut cursor) in ranges.into_iter().zip(cursors) {
            let (oriented, slots) = (&oriented, &slots);
            scope.spawn(move || {
                // The pair of edge {x, y} in triangle {x, y, z}: its two
                // edges to z, the one from min(x, y) first.
                let mut put = |e_xy: u32, x: u32, y: u32, e_xz: u32, e_yz: u32| {
                    let (first, second) = if x < y { (e_xz, e_yz) } else { (e_yz, e_xz) };
                    let e = e_xy as usize;
                    let slot = cursor[e] as usize;
                    cursor[e] += 1;
                    slots[2 * slot].store(first, Ordering::Relaxed);
                    slots[2 * slot + 1].store(second, Ordering::Relaxed);
                };
                for_each_triangle_in(oriented, range, |a, b, c, e_ab, e_ac, e_bc| {
                    put(e_ab, a, b, e_ac, e_bc);
                    put(e_ac, a, c, e_ab, e_bc);
                    put(e_bc, b, c, e_ab, e_ac);
                });
            });
        }
    });
    drop(oriented);
    let mut records: Vec<u32> = slots.into_iter().map(AtomicU32::into_inner).collect();
    fill_ranges_scoped(
        &mut records,
        offset_ranges(offsets, threads),
        |range| 2 * (offsets[range.end] - offsets[range.start]),
        |range, chunk| {
            let base = offsets[range.start];
            for e in range {
                let (u, _) = g.endpoints(e as u32);
                let pairs = &mut chunk[2 * (offsets[e] - base)..2 * (offsets[e + 1] - base)];
                // id(u, w) joins u and w, so xor-ing u out of its
                // endpoints leaves the third vertex w.
                pairs
                    .as_chunks_mut::<2>()
                    .0
                    .sort_unstable_by_key(|&[e_uw, _]| {
                        let (x, y) = g.endpoints(e_uw);
                        x ^ y ^ u
                    });
            }
        },
    );
    records
}

/// The third lists of triangle `t`'s edges, `[e_uv, e_uw, e_vw]` for
/// `t = [u, v, w]`: `(x, id of {u, v, x})`, `(x, id of {u, w, x})` and
/// `(x, id of {v, w, x})`, each sorted by `x`. The apexes of `t`'s K4s
/// are exactly the `x` all three lists hold.
#[inline]
fn third_lists<'a>(
    tris: &TriangleList,
    index: &'a TriangleIndex,
    t: usize,
) -> [&'a [(u32, u32)]; 3] {
    tris.edges[t].map(|e| index.thirds(e))
}

/// Per-triangle cost of a vertex-mark kernel: one table operation per
/// entry of the three third lists, plus one for the triangle itself.
fn third_list_weight(lists: [&[(u32, u32)]; 3]) -> usize {
    lists.iter().map(|list| list.len()).sum::<usize>() + 1
}

/// Per-triangle K4 degrees (the (3,4) ω) read off `index`, the
/// [`TriangleIndex`] of `tris`, by vertex marks. The apexes of
/// triangle `t`'s K4s are the vertices in all three third lists of its
/// edges, so each worker keeps one byte per vertex of `g` and, per
/// triangle, marks the shortest list, promotes the marks the middle
/// list hits, counts the promoted marks the longest list hits and
/// clears the shortest list's marks again: no merge and no
/// [`TriangleIndex::tid`] search. Workers fill contiguous slices of
/// the result over [`balanced_ranges`] weighted by the lists' lengths,
/// so no tally is summed. Each triangle's count does not depend on the
/// split, so the result equals [`crate::four_cliques::k4_degrees`] at
/// any thread count.
pub fn k4_degrees_indexed(
    g: &CsrGraph,
    tris: &TriangleList,
    index: &TriangleIndex,
    threads: usize,
) -> Vec<u32> {
    let weights: Vec<usize> = (0..tris.len())
        .map(|t| third_list_weight(third_lists(tris, index, t)))
        .collect();
    let mut deg = vec![0u32; tris.len()];
    fill_ranges_with_scratch(
        &mut deg,
        balanced_ranges(&weights, threads),
        |range| range.len(),
        |_| vec![0u8; g.n()],
        |range, chunk, mark| {
            for (slot, t) in chunk.iter_mut().zip(range) {
                let mut lists = third_lists(tris, index, t);
                lists.sort_unstable_by_key(|list| list.len());
                let [shortest, middle, longest] = lists;
                // Each list holds the triangle's own opposite vertex,
                // never an apex: a list of one leaves no K4 to find.
                if shortest.len() == 1 {
                    continue;
                }
                for &(x, _) in shortest {
                    mark[x as usize] = 1;
                }
                // Only the shortest list's entries are nonzero, so the
                // shift promotes exactly the vertices of both lists.
                let mut promoted = 0u32;
                for &(x, _) in middle {
                    let m = &mut mark[x as usize];
                    *m <<= 1;
                    promoted += u32::from(*m >> 1);
                }
                if promoted > 0 {
                    *slot = longest
                        .iter()
                        .map(|&(x, _)| u32::from(mark[x as usize] == 2))
                        .sum();
                }
                for &(x, _) in shortest {
                    mark[x as usize] = 0;
                }
            }
        },
    );
    deg
}

/// The (3,4) container records of every triangle, read off `index`
/// (the [`TriangleIndex`] of `tris`) by vertex marks: for triangle
/// `t = [u, v, w]`, one `[id(u,v,x), id(u,w,x), id(v,w,x)]` record per
/// K4 apex `x`, ascending in `x`, triangles back to back over `offsets`
/// (the prefix sum of the K4 degrees, in records). That is the order
/// of the per-cell enumeration, which merges the `(u,v)` and `(u,w)`
/// third lists and searches each apex's third id in the `(v,w)` list.
///
/// Each worker keeps two `u32` tables over the vertices of `g`. Per
/// triangle it writes the `(u,v)` list into one (`x` → id of
/// `{u,v,x}`) and the `(v,w)` list into the other (`x` → id of
/// `{v,w,x}`), then scans the `(u,w)` list, sorted by `x`: every entry
/// both tables hold is an apex, and its record is complete. It clears
/// both tables again; no merge, no search. A triangle the offsets give
/// no K4 is skipped unscanned. Workers fill the contiguous slices of
/// the result their [`balanced_ranges`] own, so the records do not
/// depend on the split.
///
/// # Panics
/// When `offsets` is not one entry per triangle plus the total, when a
/// scanned triangle has a K4 count other than its offsets give it
/// (checked per triangle, in release too, so each worker's slice ends
/// filled exactly), or when `tris` has 2³² or more triangles.
pub fn triangle_companion_records(
    g: &CsrGraph,
    tris: &TriangleList,
    index: &TriangleIndex,
    offsets: &[usize],
    threads: usize,
) -> Vec<u32> {
    // Triangle ids are below `tris.len()`, so none is `u32::MAX`.
    const UNSET: u32 = u32::MAX;
    assert!(
        u32::try_from(tris.len()).is_ok(),
        "triangle ids must fit a u32"
    );
    assert_eq!(
        offsets.len(),
        tris.len() + 1,
        "one offset per triangle, plus the total"
    );
    let weights: Vec<usize> = (0..tris.len())
        .map(|t| match offsets[t + 1] - offsets[t] {
            0 => 1,
            _ => third_list_weight(third_lists(tris, index, t)),
        })
        .collect();
    let mut records = vec![0u32; 3 * offsets[tris.len()]];
    let chunk_len = |range: &Range<usize>| 3 * (offsets[range.end] - offsets[range.start]);
    fill_ranges_with_scratch(
        &mut records,
        balanced_ranges(&weights, threads),
        chunk_len,
        // A range whose triangles have no K4 scans nothing.
        |range| match chunk_len(range) {
            0 => (Vec::new(), Vec::new()),
            _ => (vec![UNSET; g.n()], vec![UNSET; g.n()]),
        },
        |range, chunk, (uvx, vwx)| {
            let base = offsets[range.start];
            let mut pos = 0usize;
            for t in range {
                let (start, end) = (3 * (offsets[t] - base), 3 * (offsets[t + 1] - base));
                if start == end {
                    continue;
                }
                let [uv, uw, vw] = third_lists(tris, index, t);
                for &(x, id) in uv {
                    uvx[x as usize] = id;
                }
                for &(x, id) in vw {
                    vwx[x as usize] = id;
                }
                // Every entry writes a record at `pos`, and only an
                // apex moves `pos` past it, so the scan needs no branch
                // per entry. A write past `end` lands in a later
                // triangle's slots, which it overwrites in turn.
                for &(x, t_uwx) in uw {
                    let (t_uvx, t_vwx) = (uvx[x as usize], vwx[x as usize]);
                    let apex = usize::from(t_uvx != UNSET) & usize::from(t_vwx != UNSET);
                    if pos + 3 <= chunk.len() {
                        chunk[pos..pos + 3].copy_from_slice(&[t_uvx, t_uwx, t_vwx]);
                    }
                    pos += 3 * apex;
                }
                // A short count would leave slots unwritten, a long
                // one spill into the next triangle's.
                assert!(
                    pos == end,
                    "offsets must be the K4 degrees: triangle {t} has {} K4s, offsets give {}",
                    (pos - start) / 3,
                    (end - start) / 3
                );
                for &(x, _) in uv {
                    uvx[x as usize] = UNSET;
                }
                for &(x, _) in vw {
                    vwx[x as usize] = UNSET;
                }
            }
        },
    );
    records
}

/// Computes per-triangle K4 degrees using `threads` worker threads:
/// builds the [`TriangleIndex`] of `tris`, then runs
/// [`k4_degrees_indexed`], the ω kernel a (3,4) prepare runs over the
/// index it builds. Equal to [`crate::four_cliques::k4_degrees`], the
/// serial reference.
pub fn k4_degrees_parallel(g: &CsrGraph, tris: &TriangleList, threads: usize) -> Vec<u32> {
    let index = TriangleIndex::build_with_threads(g, tris, threads);
    k4_degrees_indexed(g, tris, &index, threads)
}

/// Computes per-vertex triangle counts using `threads` worker threads —
/// the parallel twin of [`crate::triangles::vertex_triangle_counts`].
/// Same private-partials-then-sum scheme as [`edge_supports_parallel`].
pub fn vertex_triangle_counts_parallel(g: &CsrGraph, threads: usize) -> Vec<u32> {
    let oriented = OrientedAdjacency::build(g);
    let ranges = balanced_ranges(&oriented_weights(&oriented), threads);
    let tallies = count_tallies(&ranges, g.n(), |range, deg| {
        for_each_triangle_in(&oriented, range, |a, b, c, _, _, _| {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
            deg[c as usize] += 1;
        });
    });
    sum_tallies(&tallies, g.n())
}

/// Computes per-edge K4 degrees using `threads` worker threads — the
/// parallel twin of [`crate::four_cliques::k4_edge_degrees`]. Edges are
/// independent given the [`TriangleIndex`], so each worker fills a
/// disjoint slice; ranges are balanced by the quadratic pair-scan cost
/// over each edge's third-vertex list.
pub fn k4_edge_degrees_parallel(g: &CsrGraph, index: &TriangleIndex, threads: usize) -> Vec<u32> {
    let m = g.m();
    let mut deg = vec![0u32; m];
    let weights: Vec<usize> = (0..m as u32)
        .map(|e| {
            let t = index.thirds(e).len();
            t * t + 1
        })
        .collect();
    let ranges = balanced_ranges(&weights, threads);
    fill_ranges_scoped(
        &mut deg,
        ranges,
        |range| range.len(),
        |range, chunk| {
            for (slot, e) in chunk.iter_mut().zip(range) {
                *slot = k4_degree_of_edge(g, index.thirds(e as u32));
            }
        },
    );
    deg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::four_cliques::{k4_degrees, k4_edge_degrees};
    use crate::triangles::{edge_supports, triangle_count, vertex_triangle_counts};
    use nucleus_graph::flat::offsets_from_counts;

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
    fn matches_serial_on_clique() {
        let g = complete(20);
        for threads in [1, 2, 4, 7] {
            assert_eq!(triangle_count_parallel(&g, threads), triangle_count(&g));
            assert_eq!(edge_supports_parallel(&g, threads), edge_supports(&g));
        }
    }

    #[test]
    fn matches_serial_on_random_graph() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let edges: Vec<(u32, u32)> = (0..2000)
            .map(|_| (rng.gen_range(0..300u32), rng.gen_range(0..300u32)))
            .collect();
        let g = CsrGraph::from_edges(300, &edges);
        assert_eq!(triangle_count_parallel(&g, 4), triangle_count(&g));
        assert_eq!(edge_supports_parallel(&g, 4), edge_supports(&g));
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(triangle_count_parallel(&g, 4), 0);
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        assert_eq!(triangle_count_parallel(&g, 4), 0);
        assert_eq!(edge_supports_parallel(&g, 4), vec![0]);
    }

    /// Asserts the ranges are disjoint, ordered, cover `len` items, and
    /// respect the `parts` cap.
    fn check_cover(ranges: &[Range<usize>], len: usize, parts: usize) {
        assert!(ranges.len() <= parts.max(1), "{ranges:?} exceeds {parts}");
        let mut covered = vec![false; len];
        for r in ranges {
            for i in r.clone() {
                assert!(!covered[i], "overlap at {i}");
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "gap in {ranges:?}");
    }

    #[test]
    fn balanced_ranges_cover_everything() {
        let w = vec![5, 1, 1, 1, 10, 1, 1];
        for parts in 1..=8 {
            check_cover(&balanced_ranges(&w, parts), w.len(), parts);
        }
        // degenerate cases
        assert_eq!(balanced_ranges(&[], 3).len(), 1);
        assert_eq!(balanced_ranges(&[1], 1), vec![0..1]);
    }

    #[test]
    fn balanced_ranges_never_exceed_parts() {
        // A zero-weight tail used to produce parts + 1 ranges: the loop
        // consumed all the weight early and the leftover indices became
        // an extra range.
        let ranges = balanced_ranges(&[1, 0], 1);
        assert_eq!(ranges, vec![0..2]);
        let ranges = balanced_ranges(&[3, 3, 0, 0, 0], 2);
        check_cover(&ranges, 5, 2);
        // heavy head + zero tail at several part counts
        let w = vec![9, 9, 9, 0, 0, 0, 0];
        for parts in 1..=10 {
            check_cover(&balanced_ranges(&w, parts), w.len(), parts);
        }
    }

    #[test]
    fn balanced_ranges_all_zero_weights() {
        let w = vec![0usize; 6];
        for parts in [1, 2, 3, 7] {
            let ranges = balanced_ranges(&w, parts);
            check_cover(&ranges, w.len(), parts);
        }
    }

    #[test]
    fn balanced_ranges_more_parts_than_items() {
        let w = vec![2, 1];
        for parts in [3, 5, 100] {
            let ranges = balanced_ranges(&w, parts);
            check_cover(&ranges, w.len(), parts);
            // no empty ranges are handed to workers
            assert!(ranges.iter().all(|r| !r.is_empty()), "{ranges:?}");
        }
        // parts = 0 is clamped to 1
        assert_eq!(balanced_ranges(&w, 0), vec![0..2]);
    }

    #[test]
    fn offset_ranges_cover_everything() {
        // per-cell record counts, including empty cells and a heavy one
        for counts in [vec![], vec![0, 0, 0], vec![3], vec![2, 0, 5, 1, 0, 0, 9, 1]] {
            let offsets = offsets_from_counts(&counts);
            for parts in [0, 1, 2, 3, 8, 20] {
                let ranges = offset_ranges(&offsets, parts);
                check_cover(&ranges, counts.len(), parts);
                if !counts.is_empty() {
                    assert!(ranges.iter().all(|r| !r.is_empty()), "{ranges:?}");
                }
            }
        }
        assert_eq!(offset_ranges(&[0], 4), vec![0..0]);
    }

    #[test]
    fn vertex_triangle_counts_parallel_matches_serial() {
        let g = complete(15);
        let serial = vertex_triangle_counts(&g);
        for threads in [1, 2, 4, 7] {
            assert_eq!(vertex_triangle_counts_parallel(&g, threads), serial);
        }

        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let edges: Vec<(u32, u32)> = (0..2000)
            .map(|_| (rng.gen_range(0..300u32), rng.gen_range(0..300u32)))
            .collect();
        let g = CsrGraph::from_edges(300, &edges);
        let serial = vertex_triangle_counts(&g);
        for threads in [2, 3, 8] {
            assert_eq!(vertex_triangle_counts_parallel(&g, threads), serial);
        }

        let g = CsrGraph::from_edges(0, &[]);
        assert!(vertex_triangle_counts_parallel(&g, 4).is_empty());
    }

    #[test]
    fn k4_edge_degrees_parallel_matches_serial() {
        let g = complete(12);
        let tl = TriangleList::build(&g);
        let idx = TriangleIndex::build(&g, &tl);
        let serial = k4_edge_degrees(&g, &idx);
        for threads in [1, 2, 4, 7] {
            assert_eq!(k4_edge_degrees_parallel(&g, &idx, threads), serial);
        }

        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        let edges: Vec<(u32, u32)> = (0..1500)
            .map(|_| (rng.gen_range(0..160u32), rng.gen_range(0..160u32)))
            .collect();
        let g = CsrGraph::from_edges(160, &edges);
        let tl = TriangleList::build(&g);
        let idx = TriangleIndex::build(&g, &tl);
        let serial = k4_edge_degrees(&g, &idx);
        for threads in [2, 3, 8] {
            assert_eq!(k4_edge_degrees_parallel(&g, &idx, threads), serial);
        }
    }

    #[test]
    fn k4_degrees_parallel_matches_serial() {
        let g = complete(12);
        let tl = TriangleList::build(&g);
        let serial = k4_degrees(&g, &tl);
        for threads in [1, 2, 4, 7] {
            assert_eq!(k4_degrees_parallel(&g, &tl, threads), serial);
        }

        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let edges: Vec<(u32, u32)> = (0..1500)
            .map(|_| (rng.gen_range(0..160u32), rng.gen_range(0..160u32)))
            .collect();
        let g = CsrGraph::from_edges(160, &edges);
        let tl = TriangleList::build(&g);
        let serial = k4_degrees(&g, &tl);
        for threads in [1, 3, 8] {
            assert_eq!(k4_degrees_parallel(&g, &tl, threads), serial);
        }

        // no triangles at all
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let tl = TriangleList::build(&g);
        assert_eq!(k4_degrees_parallel(&g, &tl, 4), Vec::<u32>::new());
    }

    /// The (3,4) records by the per-cell enumeration, with their
    /// offsets: per triangle `[u, v, w]`, a merge of the `(u,v)` and
    /// `(u,w)` third lists, and for each common apex `x` a search of
    /// the `(v,w)` list, giving `[id(u,v,x), id(u,w,x), id(v,w,x)]`.
    fn triangle_records_by_merge(
        tris: &TriangleList,
        index: &TriangleIndex,
    ) -> (Vec<usize>, Vec<u32>) {
        let mut counts = vec![];
        let mut records = vec![];
        for &[e_uv, e_uw, e_vw] in &tris.edges {
            let before = records.len();
            let (a, b) = (index.thirds(e_uv), index.thirds(e_uw));
            let (mut i, mut j) = (0usize, 0usize);
            while i < a.len() && j < b.len() {
                match a[i].0.cmp(&b[j].0) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        if let Some(t_vwx) = index.tid(e_vw, a[i].0) {
                            records.extend([a[i].1, b[j].1, t_vwx]);
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
            counts.push(((records.len() - before) / 3) as u32);
        }
        (offsets_from_counts(&counts), records)
    }

    /// Both (3,4) vertex-table kernels at 1, 2 and 8 threads against
    /// the serial ω reference and the merge; returns ω and the records.
    fn check_k4_kernels(g: &CsrGraph) -> (Vec<u32>, Vec<u32>) {
        let tris = TriangleList::build(g);
        let index = TriangleIndex::build(g, &tris);
        let want = k4_degrees(g, &tris);
        let (offsets, records) = triangle_records_by_merge(&tris, &index);
        assert_eq!(offsets, offsets_from_counts(&want), "merge vs ω");
        for threads in [1, 2, 8] {
            assert_eq!(
                k4_degrees_indexed(g, &tris, &index, threads),
                want,
                "ω at t={threads}"
            );
            assert_eq!(
                triangle_companion_records(g, &tris, &index, &offsets, threads),
                records,
                "records at t={threads}"
            );
        }
        (want, records)
    }

    #[test]
    fn k4_kernels_on_edge_cases_and_cliques() {
        // The empty graph and a triangle-free cycle: nothing to list.
        for g in [
            CsrGraph::from_edges(0, &[]),
            CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        ] {
            let (deg, records) = check_k4_kernels(&g);
            assert!(deg.is_empty() && records.is_empty());
        }
        // The K4-free diamond: two triangles, ω all 0, no records.
        let diamond = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let (deg, records) = check_k4_kernels(&diamond);
        assert_eq!(deg, vec![0, 0]);
        assert!(records.is_empty());
        // A lone K4 (8 workers asked for, 4 triangles): each triangle's
        // one record names the other three faces.
        let (deg, records) = check_k4_kernels(&complete(4));
        assert_eq!(deg, vec![1; 4]);
        for (t, record) in records.chunks(3).enumerate() {
            let mut ids = record.to_vec();
            ids.push(t as u32);
            ids.sort_unstable();
            assert_eq!(ids, vec![0, 1, 2, 3], "triangle {t}");
        }
        // Each triangle of K_k lies in k - 3 K4s.
        for k in 5..=9 {
            let (deg, _) = check_k4_kernels(&complete(k));
            assert!(deg.iter().all(|&d| d == k - 3), "K{k}");
        }
    }

    #[test]
    #[should_panic]
    fn triangle_companion_records_reject_wrong_offsets() {
        // every triangle of K5 lies in 2 K4s; move one count over, so
        // the worker scanning triangle 0 finds more K4s than it has room
        let g = complete(5);
        let tris = TriangleList::build(&g);
        let index = TriangleIndex::build(&g, &tris);
        let mut counts = k4_degrees(&g, &tris);
        counts[0] -= 1;
        counts[1] += 1;
        let offsets = offsets_from_counts(&counts);
        triangle_companion_records(&g, &tris, &index, &offsets, 1);
    }

    /// The (2,3) records of `g` by the definition: per edge `{u, v}`
    /// with `u < v`, `[id(u, w), id(v, w)]` for each common neighbour
    /// `w` in ascending order.
    fn companion_records_by_merge(g: &CsrGraph) -> Vec<u32> {
        let mut out = vec![];
        for (_, u, v) in g.edges() {
            for (w, e_uw) in g.arcs(u) {
                if let Some(e_vw) = g.edge_id(v, w) {
                    out.extend([e_uw, e_vw]);
                }
            }
        }
        out
    }

    #[test]
    fn edge_companion_records_match_the_merge() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(37);
        let edges: Vec<(u32, u32)> = (0..1500)
            .map(|_| (rng.gen_range(0..160u32), rng.gen_range(0..160u32)))
            .collect();
        for g in [
            complete(9),
            CsrGraph::from_edges(160, &edges),
            CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]),
            CsrGraph::from_edges(0, &[]),
        ] {
            let offsets = offsets_from_counts(&edge_supports(&g));
            let want = companion_records_by_merge(&g);
            for threads in [1, 2, 4, 7] {
                let tallies = SupportTallies::count(OrientedAdjacency::build(&g), threads);
                assert_eq!(tallies.supports(), edge_supports(&g), "t={threads}");
                assert_eq!(
                    edge_companion_records(&g, tallies, &offsets, threads),
                    want,
                    "t={threads}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "edge supports")]
    fn edge_companion_records_reject_wrong_offsets() {
        // every edge of K4 lies in 2 triangles; move one count over
        let g = complete(4);
        let mut counts = edge_supports(&g);
        counts[0] -= 1;
        counts[1] += 1;
        let offsets = offsets_from_counts(&counts);
        let tallies = SupportTallies::count(OrientedAdjacency::build(&g), 2);
        edge_companion_records(&g, tallies, &offsets, 2);
    }
}
