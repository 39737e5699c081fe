//! Property tests: oriented triangle enumeration and K4 degrees against
//! the brute-force clique enumerator, on random graphs, the table
//! listing kernel against the sorted-list merge it replaced, and the
//! (3,4) vertex-table kernels (ω and container records) against the
//! serial K4 degrees and the per-cell merge.

use std::cmp::Ordering;
use std::ops::Range;

use proptest::prelude::*;

use nucleus_cliques::four_cliques::{k4_count, k4_degrees};
use nucleus_cliques::kclique::{count_cliques, for_each_clique};
use nucleus_cliques::triangles::{edge_supports, for_each_triangle_in, triangle_count};
use nucleus_cliques::{
    balanced_ranges, k4_degrees_indexed, k4_degrees_parallel, triangle_companion_records,
    OrientedAdjacency, TriangleIndex, TriangleList,
};
use nucleus_graph::flat::offsets_from_counts;
use nucleus_graph::CsrGraph;

fn graph_strategy(n: u32, m_max: usize) -> impl Strategy<Value = CsrGraph> {
    proptest::collection::vec((0..n, 0..n), 0..=m_max)
        .prop_map(move |edges| CsrGraph::from_edges(n as usize, &edges))
}

/// One listed triangle: `(u, v, w, e_uv, e_uw, e_vw)`.
type Listed = (u32, u32, u32, u32, u32, u32);

/// The listing the table kernel replaced, kept as the reference: for
/// each root `u` ascending and each arc `v` of out(u), a sorted-list
/// merge of out(u) and out(v).
fn merge_listing(oriented: &OrientedAdjacency) -> Vec<Listed> {
    let mut out = vec![];
    for u in 0..oriented.vertex_count() as u32 {
        let out_u = oriented.out(u);
        for &(v, e_uv) in out_u {
            let out_v = oriented.out(v);
            let (mut i, mut j) = (0usize, 0usize);
            while i < out_u.len() && j < out_v.len() {
                let (a, e_uw) = out_u[i];
                let (b, e_vw) = out_v[j];
                match a.cmp(&b) {
                    Ordering::Less => i += 1,
                    Ordering::Greater => j += 1,
                    Ordering::Equal => {
                        out.push((u, v, a, e_uv, e_uw, e_vw));
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    out
}

/// The table kernel's listing over `ranges`, concatenated in order.
fn table_listing(oriented: &OrientedAdjacency, ranges: &[Range<usize>]) -> Vec<Listed> {
    let mut out = vec![];
    for range in ranges {
        for_each_triangle_in(oriented, range.clone(), |u, v, w, e_uv, e_uw, e_vw| {
            out.push((u, v, w, e_uv, e_uw, e_vw))
        });
    }
    out
}

/// The merge reference, and the table kernel's listing over
/// `balanced_ranges` splits at 1 part (the full root range), 2 and 8
/// parts (weighted by out-degree cost, as the parallel builders split),
/// each with the ranges it ran over.
fn listings(g: &CsrGraph) -> (Vec<Listed>, Vec<(String, Vec<Listed>)>) {
    let oriented = OrientedAdjacency::build(g);
    let weights: Vec<usize> = (0..oriented.vertex_count() as u32)
        .map(|u| {
            let d = oriented.out(u).len();
            d * d + d
        })
        .collect();
    let table = [1, 2, 8]
        .into_iter()
        .map(|parts| {
            let ranges = balanced_ranges(&weights, parts);
            (format!("{ranges:?}"), table_listing(&oriented, &ranges))
        })
        .collect();
    (merge_listing(&oriented), table)
}

/// The (3,4) container records in the per-cell enumeration's order:
/// per triangle `[u, v, w]`, a merge of the `(u,v)` and `(u,w)` third
/// lists, and for each common apex `x` a search of the `(v,w)` list,
/// giving `[id(u,v,x), id(u,w,x), id(v,w,x)]`; with the per-triangle
/// record counts.
fn merge_records(tris: &TriangleList, index: &TriangleIndex) -> (Vec<u32>, Vec<u32>) {
    let mut counts = vec![];
    let mut records = vec![];
    for &[e_uv, e_uw, e_vw] in &tris.edges {
        let before = records.len();
        let (a, b) = (index.thirds(e_uv), index.thirds(e_uw));
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
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
    (counts, records)
}

fn clique(k: u32) -> Vec<(u32, u32)> {
    (0..k)
        .flat_map(|u| (u + 1..k).map(move |v| (u, v)))
        .collect()
}

/// Cell ids of the (3,4) space are listing positions, and a persisted
/// index's fingerprint hashes only the edge list: a kernel that listed
/// the same triangles in another order would mis-serve saved indexes.
#[test]
fn table_listing_matches_merge_on_fixed_graphs() {
    let spread = |edges: Vec<(u32, u32)>| -> Vec<(u32, u32)> {
        // every third vertex id, so isolated vertices sit between
        edges
            .into_iter()
            .map(|(u, v)| (3 * u + 1, 3 * v + 1))
            .collect()
    };
    let mut graphs = vec![
        CsrGraph::from_edges(0, &[]),
        CsrGraph::from_edges(5, &[]),
        CsrGraph::from_edges(30, &spread(clique(6))),
    ];
    for k in 1..=7 {
        graphs.push(CsrGraph::from_edges(k as usize, &clique(k)));
    }
    for g in &graphs {
        let (want, table) = listings(g);
        assert_eq!(want.len() as u64, count_cliques(g, 3));
        for (split, got) in table {
            assert_eq!(got, want, "n={} split {split}", g.n());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn table_listing_matches_merge(
        g in graph_strategy(24, 140),
        sparse in graph_strategy(70, 120),
    ) {
        for g in [g, sparse] {
            let (want, table) = listings(&g);
            for (split, got) in table {
                prop_assert_eq!(&got, &want, "split {}", split);
            }
        }
    }

    #[test]
    fn triangle_count_matches_bruteforce(g in graph_strategy(18, 70)) {
        prop_assert_eq!(triangle_count(&g), count_cliques(&g, 3));
    }

    #[test]
    fn triangle_list_is_exact(g in graph_strategy(16, 60)) {
        let tl = TriangleList::build(&g);
        let mut listed = tl.vertices.clone();
        listed.sort_unstable();
        let mut brute: Vec<[u32; 3]> = vec![];
        for_each_clique(&g, 3, |c| brute.push([c[0], c[1], c[2]]));
        brute.sort_unstable();
        prop_assert_eq!(listed, brute);
    }

    #[test]
    fn supports_sum_to_three_triangles(g in graph_strategy(16, 60)) {
        let s = edge_supports(&g);
        let total: u64 = s.iter().map(|&x| x as u64).sum();
        prop_assert_eq!(total, 3 * triangle_count(&g));
        // per-edge cross-check against common-neighbor counting
        for (e, u, v) in g.edges() {
            let mut common = 0u32;
            let (a, b) = (g.neighbors(u), g.neighbors(v));
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => { common += 1; i += 1; j += 1; }
                }
            }
            prop_assert_eq!(s[e as usize], common);
        }
    }

    #[test]
    fn k4_count_matches_bruteforce(g in graph_strategy(14, 50)) {
        let tl = TriangleList::build(&g);
        prop_assert_eq!(k4_count(&g, &tl), count_cliques(&g, 4));
        // degrees sum to 4 × K4 count
        let deg_sum: u64 = k4_degrees(&g, &tl).iter().map(|&d| d as u64).sum();
        prop_assert_eq!(deg_sum, 4 * count_cliques(&g, 4));
        // listing each K4 once gives the same per-triangle degrees
        prop_assert_eq!(k4_degrees_parallel(&g, &tl, 2), k4_degrees(&g, &tl));
    }

    #[test]
    fn k4_vertex_table_kernels_match_references(
        dense in graph_strategy(11, 60),
        sparse in graph_strategy(40, 110),
    ) {
        for g in [dense, sparse] {
            let tris = TriangleList::build(&g);
            let index = TriangleIndex::build(&g, &tris);
            let want = k4_degrees(&g, &tris);
            let (counts, records) = merge_records(&tris, &index);
            prop_assert_eq!(&counts, &want);
            let offsets = offsets_from_counts(&want);
            for threads in [1, 2, 8] {
                prop_assert_eq!(
                    &k4_degrees_indexed(&g, &tris, &index, threads), &want, "t={}", threads
                );
                prop_assert_eq!(
                    &triangle_companion_records(&g, &tris, &index, &offsets, threads),
                    &records,
                    "t={}",
                    threads
                );
            }
        }
    }

    #[test]
    fn triangle_index_lookups_are_complete(g in graph_strategy(14, 50)) {
        let tl = TriangleList::build(&g);
        let idx = TriangleIndex::build(&g, &tl);
        prop_assert_eq!(idx.incidence_count(), 3 * tl.len());
        for (tid, (vs, es)) in tl.vertices.iter().zip(&tl.edges).enumerate() {
            let [u, v, w] = *vs;
            prop_assert_eq!(idx.tid(es[0], w), Some(tid as u32));
            prop_assert_eq!(idx.tid(es[1], v), Some(tid as u32));
            prop_assert_eq!(idx.tid(es[2], u), Some(tid as u32));
        }
        // negative lookups: a vertex not adjacent to both endpoints
        for (e, u, v) in g.edges().take(10) {
            for w in 0..g.n() as u32 {
                let is_tri = w != u && w != v && g.has_edge(u.min(w), u.max(w)) && g.has_edge(v.min(w), v.max(w));
                prop_assert_eq!(idx.tid(e, w).is_some(), is_tri);
            }
        }
    }
}
