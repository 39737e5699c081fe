//! The materialized peeling backend: container incidence flattened into
//! one CSR, built once per space, in parallel, or loaded from a
//! persisted index.
//!
//! Every lazy space answers [`PeelBackend::for_each_container`] by
//! re-running a sorted-list intersection — work that peeling repeats for
//! a cell each time one of its containers dies. [`ContainerIndex`]
//! performs that enumeration exactly once per cell (or once for the
//! whole space, when the space has a fused fill), storing each
//! container as a fixed-width record of co-cell ids in a
//! [`FlatRecords`] buffer; [`IndexedSpace`] then serves the whole
//! [`PeelSpace`] interface from the flat index, so `peel`, `dft`,
//! `fnd`, `naive`, `hypo_sweep` and `check_semantics` monomorphize over
//! it unchanged. A loaded index ([`crate::persist::PreparedIndex`])
//! decodes into the same [`FlatRecords`], so built and loaded sessions
//! peel through one code path.

use std::io::Write;

use nucleus_cliques::{balanced_ranges, fill_ranges_scoped};
use nucleus_graph::flat::{offsets_from_counts, FlatRecords};
use nucleus_graph::persist_io::{self, GraphFingerprint};
use nucleus_graph::GraphError;

use super::{PeelBackend, PeelSpace};

/// `C(s, r) - 1`: co-cells per container record for an (r, s) space.
///
/// ```
/// use nucleus_core::space::materialized::record_arity;
/// assert_eq!(record_arity(1, 2), 1); // k-core: the neighbor
/// assert_eq!(record_arity(2, 3), 2); // truss: two companion edges
/// assert_eq!(record_arity(3, 4), 3); // (3,4): three companion triangles
/// assert_eq!(record_arity(2, 4), 5); // (2,4): five companion edges
/// ```
pub fn record_arity(r: u32, s: u32) -> usize {
    assert!(r < s, "need r < s, got ({r},{s})");
    // C(s, r) with small operands; overflow-free for the s <= 4 spaces
    // here and anything remotely peelable.
    let mut binom = 1u64;
    for i in 0..r as u64 {
        binom = binom * (s as u64 - i) / (i + 1);
    }
    binom as usize - 1
}

/// Flat CSR of container records: for each cell, one record per
/// container, each record holding the co-cell ids in the lazy backend's
/// enumeration order.
#[derive(Clone, Debug)]
pub struct ContainerIndex {
    records: FlatRecords,
}

/// Every cell's records from [`PeelBackend::for_each_container`], laid
/// out over `offsets`: each worker fills a disjoint slice, over ranges
/// balanced by per-cell container count.
fn fill_per_cell<S: PeelSpace + Sync>(
    space: &S,
    offsets: &[usize],
    arity: usize,
    threads: usize,
) -> Vec<u32> {
    let mut data = vec![0u32; offsets[offsets.len() - 1] * arity];
    let weights: Vec<usize> = offsets.windows(2).map(|w| w[1] - w[0] + 1).collect();
    fill_ranges_scoped(
        &mut data,
        balanced_ranges(&weights, threads),
        |range| (offsets[range.end] - offsets[range.start]) * arity,
        |range, chunk| {
            let mut pos = 0usize;
            for cell in range {
                space.for_each_container(cell as u32, |others| {
                    debug_assert_eq!(others.len(), arity, "record arity");
                    chunk[pos..pos + arity].copy_from_slice(others);
                    pos += arity;
                });
            }
            // Hard assert: a space whose degrees() overstates its
            // enumeration would otherwise leave zero-filled records
            // (co-cell id 0) and corrupt results silently in
            // release builds. O(1) per worker range.
            assert_eq!(pos, chunk.len(), "degrees must match enumeration");
        },
    );
    data
}

impl ContainerIndex {
    /// Builds the index from a lazy space using up to `threads` worker
    /// threads. ω degrees give exact record counts, so the buffer is
    /// allocated once: a space with a whole-space fill
    /// ([`PeelSpace::fused_records`]) writes it in one pass, any other
    /// is filled cell by cell, each worker taking a disjoint slice
    /// (ranges balanced by per-cell container count; no locks, no
    /// atomics).
    pub fn build<S: PeelSpace + Sync>(space: &S, threads: usize) -> Self {
        Self::build_with_counts(space, space.degrees(), threads)
    }

    /// [`ContainerIndex::build`] with the ω degrees already in hand
    /// (callers that computed them for the `Auto` size estimate avoid a
    /// second full clone). `counts` must be `space.degrees()`.
    pub fn build_with_counts<S: PeelSpace + Sync>(
        space: &S,
        counts: Vec<u32>,
        threads: usize,
    ) -> Self {
        debug_assert_eq!(
            counts.len(),
            space.cell_count(),
            "counts must cover every cell"
        );
        let arity = record_arity(space.r(), space.s());
        let offsets = offsets_from_counts(&counts);
        drop(counts);
        let threads = threads.max(1);
        let data = match space.fused_records(&offsets, threads) {
            Some(data) => data,
            None => fill_per_cell(space, &offsets, arity, threads),
        };
        ContainerIndex {
            records: FlatRecords::from_parts(offsets, data, arity),
        }
    }

    /// Wraps records decoded from a persisted index.
    /// [`crate::persist::PreparedIndex`] has checked that they name only
    /// cells below their cell count, and the session that calls this
    /// that they belong to the graph at hand.
    pub(crate) fn from_records(records: FlatRecords) -> Self {
        ContainerIndex { records }
    }

    /// Number of cells indexed.
    pub fn cell_count(&self) -> usize {
        self.records.cells()
    }

    /// Co-cells per record (`C(s,r) - 1`).
    pub fn arity(&self) -> usize {
        self.records.arity()
    }

    /// Total container records (Σ ω over all cells).
    pub fn container_count(&self) -> usize {
        self.records.record_count()
    }

    /// ω of one cell, read off the offsets.
    #[inline]
    pub fn degree(&self, cell: u32) -> u32 {
        self.records.count(cell)
    }

    /// ω of every cell (reconstructed from the offsets).
    pub fn counts(&self) -> Vec<u32> {
        self.records.counts()
    }

    /// Heap footprint of the index in bytes.
    pub fn bytes(&self) -> usize {
        self.records.bytes()
    }

    /// Serializes the index in the persisted format for the `(r, s)`
    /// family of a graph with fingerprint `fp`.
    pub fn write_to<W: Write>(
        &self,
        w: &mut W,
        r: u32,
        s: u32,
        fp: GraphFingerprint,
    ) -> Result<(), GraphError> {
        persist_io::write_index(w, r, s, fp, &self.records)
    }

    /// Estimated index footprint for an (r, s) space with ω degrees
    /// `counts`, **without building it**: record storage plus the
    /// offset array. Drives the `Auto` backend heuristic in
    /// [`crate::decompose::Backend`].
    pub fn estimate_bytes_from(r: u32, s: u32, counts: &[u32]) -> usize {
        let arity = record_arity(r, s);
        let records: usize = counts.iter().map(|&d| d as usize).sum();
        records * arity * std::mem::size_of::<u32>()
            + (counts.len() + 1) * std::mem::size_of::<usize>()
    }

    /// Serves one cell's containers from the flat buffer.
    #[inline]
    pub fn for_each_container<F: FnMut(&[u32])>(&self, cell: u32, mut f: F) {
        for rec in self.records.records_of(cell) {
            f(rec);
        }
    }
}

/// A [`PeelSpace`] whose container enumeration is served from a
/// **borrowed** [`ContainerIndex`] instead of recomputed — the
/// *materialized* backend. Identity queries (`r`, `s`,
/// `cell_vertices`) delegate to the borrowed lazy space. This is the
/// view [`crate::session::Prepared`] peels through: the session owns
/// the space and the index once, and every `run` constructs this
/// two-pointer view for free — no index move, no clone.
pub struct IndexedSpace<'a, S> {
    inner: &'a S,
    index: &'a ContainerIndex,
}

impl<'a, S: PeelSpace> IndexedSpace<'a, S> {
    /// Wraps a space and an index that was built from it.
    pub fn new(inner: &'a S, index: &'a ContainerIndex) -> Self {
        debug_assert_eq!(
            index.cell_count(),
            inner.cell_count(),
            "index built from a different space"
        );
        IndexedSpace { inner, index }
    }
}

impl<S: PeelSpace> PeelBackend for IndexedSpace<'_, S> {
    fn cell_count(&self) -> usize {
        self.index.cell_count()
    }

    fn degrees(&self) -> Vec<u32> {
        self.index.counts()
    }

    #[inline]
    fn for_each_container<F: FnMut(&[u32])>(&self, cell: u32, f: F) {
        self.index.for_each_container(cell, f);
    }
}

impl<S: PeelSpace> PeelSpace for IndexedSpace<'_, S> {
    fn r(&self) -> u32 {
        self.inner.r()
    }

    fn s(&self) -> u32 {
        self.inner.s()
    }

    fn cell_vertices(&self, cell: u32, out: &mut Vec<u32>) {
        self.inner.cell_vertices(cell, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{EdgeK4Space, EdgeSpace, TriangleSpace, VertexSpace, VertexTriangleSpace};
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

    /// Records served by the index must match the lazy enumeration
    /// exactly — same containers, same order.
    fn check_mirrors_lazy<S: PeelSpace + Sync>(space: &S) {
        for threads in [1, 4] {
            let index = ContainerIndex::build(space, threads);
            let m = IndexedSpace::new(space, &index);
            assert_eq!(m.cell_count(), space.cell_count());
            assert_eq!(m.degrees(), space.degrees());
            assert_eq!(m.r(), space.r());
            assert_eq!(m.s(), space.s());
            assert_eq!(m.name(), space.name());
            for cell in 0..space.cell_count() as u32 {
                let mut lazy: Vec<Vec<u32>> = vec![];
                space.for_each_container(cell, |o| lazy.push(o.to_vec()));
                let mut mat: Vec<Vec<u32>> = vec![];
                m.for_each_container(cell, |o| mat.push(o.to_vec()));
                assert_eq!(lazy, mat, "cell {cell}");
                let mut a = vec![];
                let mut b = vec![];
                space.cell_vertices(cell, &mut a);
                m.cell_vertices(cell, &mut b);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn mirrors_all_five_spaces() {
        let g = nucleus_gen::karate::karate_club();
        check_mirrors_lazy(&VertexSpace::new(&g));
        check_mirrors_lazy(&EdgeSpace::new(&g));
        check_mirrors_lazy(&TriangleSpace::new(&g));
        check_mirrors_lazy(&VertexTriangleSpace::new(&g));
        check_mirrors_lazy(&EdgeK4Space::new(&g));
    }

    #[test]
    fn index_shape_on_k5() {
        let g = complete(5);
        let es = EdgeSpace::new(&g);
        let idx = ContainerIndex::build(&es, 2);
        assert_eq!(idx.cell_count(), 10);
        assert_eq!(idx.arity(), 2);
        // each of the 10 edges lies in 3 triangles
        assert_eq!(idx.container_count(), 30);
        assert!(idx.bytes() > 0);
        assert_eq!(
            ContainerIndex::estimate_bytes_from(es.r(), es.s(), &es.degrees()),
            idx.bytes()
        );
    }

    #[test]
    fn record_arity_table() {
        assert_eq!(record_arity(1, 2), 1);
        assert_eq!(record_arity(1, 3), 2);
        assert_eq!(record_arity(2, 3), 2);
        assert_eq!(record_arity(3, 4), 3);
        assert_eq!(record_arity(2, 4), 5);
    }

    #[test]
    fn empty_graph_and_containerless_cells() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        // the 4-cycle is triangle-free: every edge has zero containers
        let es = EdgeSpace::new(&g);
        let index = ContainerIndex::build(&es, 2);
        let m = IndexedSpace::new(&es, &index);
        assert_eq!(m.degrees(), vec![0; 4]);
        let mut called = false;
        m.for_each_container(0, |_| called = true);
        assert!(!called);

        let g = CsrGraph::from_edges(0, &[]);
        let vs = VertexSpace::new(&g);
        let index = ContainerIndex::build(&vs, 2);
        assert_eq!(IndexedSpace::new(&vs, &index).cell_count(), 0);
    }

    #[test]
    fn peeling_through_materialized_backend() {
        let g = complete(6);
        let ts = TriangleSpace::new(&g);
        let index = ContainerIndex::build(&ts, 2);
        let p = crate::peel::peel(&IndexedSpace::new(&ts, &index));
        assert!(p.lambda.iter().all(|&l| l == 3));
        assert_eq!(p.lambda, crate::peel::peel(&ts).lambda);
    }
}
