#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Triangle and small-clique enumeration substrate.
//!
//! The (2,3)- and (3,4)-nucleus decompositions peel edges by triangle
//! count and triangles by four-clique count respectively, so this crate
//! provides:
//!
//! * [`triangles`] — oriented triangle enumeration (degeneracy-ordered,
//!   the standard `O(m · degeneracy)` scheme, over an
//!   [`OrientedAdjacency`] that a caller listing the same cliques twice
//!   builds once), per-edge support counts, and a materialized
//!   [`TriangleList`]. One kernel lists every triangle,
//!   [`triangles::for_each_triangle_in`]: per root range, it writes each
//!   root's out-list into a dense vertex table and scans every out(v)
//!   once against it, a table lookup per arc instead of a sorted-list
//!   merge, in the one sequence all triangle ids derive from;
//! * [`triangle_index`] — [`TriangleIndex`], a per-edge CSR of
//!   `(third-vertex, triangle-id)` pairs enabling `O(log deg)` triangle
//!   id lookups without hash maps. Its third lists are what the (3,4)
//!   kernels read: the apexes of a triangle's K4s are the vertices all
//!   three of its edges' lists hold, each entry carrying the id of the
//!   face through that apex;
//! * [`four_cliques`] — serial references for per-triangle K4 degrees
//!   (the ω₄ values peeled by the (3,4) decomposition, by three-way
//!   intersection) and per-edge ones for (2,4), and the graph's K4
//!   total, [`four_cliques::k4_count`], which sums the indexed kernel's
//!   degrees;
//! * [`kclique`] — a simple recursive k-clique enumerator, the
//!   brute-force reference the kernels above are tested against;
//! * [`parallel`] — scoped-thread parallel twins for every counting and
//!   enumeration pass (triangle counts, edge supports, vertex triangle
//!   counts, per-triangle and per-edge K4 degrees), plus the
//!   [`balanced_ranges`] work partitioner and the
//!   [`fill_ranges_scoped`]/[`fill_ranges_pair_scoped`] disjoint-chunk
//!   fill helpers they (and the materialized peeling backend in
//!   `nucleus-core`) share. Workers count into private tallies or fill
//!   disjoint slices, never shared atomic counters. The peeling spaces
//!   of `nucleus-core` call a twin at every thread count (one range at
//!   one thread); the serial functions stay as the references the
//!   twins are tested against. Four kernels feed
//!   the fused prepare of `nucleus-core`: for (2,3),
//!   [`SupportTallies::count`] lists each triangle once over the
//!   orientation and [`edge_companion_records`] lists them again to
//!   scatter the container records of their three edges, each worker
//!   through private cursors made from its tally; for (3,4),
//!   [`k4_degrees_indexed`] (ω) and [`triangle_companion_records`]
//!   (the container records) read a triangle's K4s off the three third
//!   lists of its edges with a per-worker vertex table, with no merge
//!   and no triangle-id search, each worker filling its own slice.
//!   The materializing builders have parallel constructors of their own
//!   ([`TriangleList::build_with_threads`],
//!   [`TriangleIndex::build_with_threads`]) that are **bit-identical**
//!   to their serial counterparts at any thread count.

pub mod four_cliques;
pub mod kclique;
pub mod parallel;
pub mod triangle_index;
pub mod triangles;

pub use four_cliques::k4_edge_degrees;
pub use parallel::{
    balanced_ranges, edge_companion_records, fill_ranges_pair_scoped, fill_ranges_scoped,
    k4_degrees_indexed, k4_degrees_parallel, k4_edge_degrees_parallel, triangle_companion_records,
    vertex_triangle_counts_parallel, SupportTallies,
};
pub use triangle_index::TriangleIndex;
pub use triangles::{vertex_triangle_counts, OrientedAdjacency, TriangleList};
