//! The peeling-space abstraction: one interface for every (r, s) pair,
//! served by two interchangeable backends.
//!
//! A *(r, s) nucleus decomposition* peels **cells** (the K_r's: vertices,
//! edges or triangles) by their **container** count (the K_s's they lie
//! in: edges, triangles or four-cliques). All hierarchy algorithms in
//! this crate — Naive, DFT, FND, Hypo — are written once against the two
//! traits below and monomorphized per space *and* per backend, which is
//! the paper's genericity claim made concrete.
//!
//! # The two backends
//!
//! [`PeelBackend`] is the container-enumeration contract the algorithms
//! actually drive; [`PeelSpace`] adds the space's identity (`r`, `s`,
//! the vertices a cell spans). Two families implement them:
//!
//! * **Lazy** — the five concrete spaces ([`VertexSpace`],
//!   [`EdgeSpace`], [`TriangleSpace`], [`VertexTriangleSpace`],
//!   [`EdgeK4Space`]) re-enumerate a cell's containers on every visit
//!   by intersecting sorted neighbor lists. No memory beyond the ω
//!   values, but peeling revisits each cell once per surviving
//!   container, so the same intersections are recomputed many times.
//! * **Materialized** — [`IndexedSpace`] serves any lazy space from
//!   a [`ContainerIndex`]: a flat CSR built **once** (in parallel) that
//!   stores, per cell, one fixed-width record per container holding the
//!   co-cell ids. Peeling and traversal then touch only two contiguous
//!   arrays — no intersections, no pointer chasing — at the cost of
//!   `containers × (C(s,r) − 1) × 4` bytes (e.g. two words per triangle
//!   per edge for (2,3), three words per K4 per triangle for (3,4)). A
//!   space may fill the whole index in one pass instead of cell by cell
//!   ([`PeelSpace::fused_records`]): (2,3) scatters it from the oriented
//!   triangle listing that also counts its ω, and (3,4) reads each
//!   triangle's records off the third lists of its edges in the
//!   [`nucleus_cliques::TriangleIndex`], with per-worker vertex tables
//!   and no merge or triangle-id search.
//!
//! Both backends produce bit-identical results (the proptests in
//! `tests/proptests.rs` pin λ, peeling order and FND hierarchies);
//! the trade is purely memory for time. Select one through
//! [`crate::decompose::Backend`] (`Auto` materializes when the
//! estimated index fits a size cap) or the `nucleus` CLI's
//! `--backend {auto,lazy,materialized}` flag.

/// The container-enumeration contract every peeling algorithm drives.
///
/// This is the hot-loop surface: [`crate::peel::peel`],
/// [`crate::algo::hypo::hypo_sweep`], the traversals and
/// [`crate::validate::check_semantics`] need nothing else. Implemented
/// by the lazy spaces (recomputing containers per call) and by
/// [`IndexedSpace`] (serving them from a flat [`ContainerIndex`]).
pub trait PeelBackend {
    /// Number of cells.
    fn cell_count(&self) -> usize;

    /// Initial ω_s of every cell (number of containers it lies in).
    fn degrees(&self) -> Vec<u32>;

    /// Enumerates the containers (K_s's) of `cell`, invoking `f` once per
    /// container with the *other* cells of that container (`s choose r`
    /// minus one ids: 1 for (1,2), 2 for (2,3), 3 for (3,4)).
    ///
    /// The slice is only valid for the duration of the call. The
    /// enumeration order must be deterministic: the materialized backend
    /// replays the order observed at build time, which keeps peeling
    /// orders bit-identical across backends.
    fn for_each_container<F: FnMut(&[u32])>(&self, cell: u32, f: F);
}

/// A cell universe for peeling: a [`PeelBackend`] plus the space's
/// identity. Cells are dense `u32` ids.
pub trait PeelSpace: PeelBackend {
    /// `r` of the (r, s) pair (cells are K_r's).
    fn r(&self) -> u32;

    /// `s` of the (r, s) pair (containers are K_s's).
    fn s(&self) -> u32;

    /// Appends the vertices spanned by `cell` to `out` (1, 2 or 3 ids).
    fn cell_vertices(&self, cell: u32, out: &mut Vec<u32>);

    /// Human-readable space name, e.g. `"(2,3)"`.
    fn name(&self) -> String {
        format!("({},{})", self.r(), self.s())
    }

    /// Every cell's container records from one whole-space pass, for a
    /// space that has one cheaper than enumerating cell by cell: the
    /// records [`PeelBackend::for_each_container`] yields, in its order,
    /// cells back to back over `offsets` (the prefix sum of
    /// [`PeelBackend::degrees`], in records). The default `None` makes
    /// [`ContainerIndex::build_with_counts`] fill cell by cell.
    fn fused_records(&self, offsets: &[usize], threads: usize) -> Option<Vec<u32>> {
        let _ = (offsets, threads);
        None
    }
}

pub mod edge;
pub mod edge_k4;
pub mod materialized;
pub mod triangle;
pub mod vertex;
pub mod vertex_triangle;

pub use edge::EdgeSpace;
pub use edge_k4::EdgeK4Space;
pub use materialized::{ContainerIndex, IndexedSpace};
pub use triangle::TriangleSpace;
pub use vertex::VertexSpace;
pub use vertex_triangle::VertexTriangleSpace;
