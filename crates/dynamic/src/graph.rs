//! [`DynamicGraph`]: mutable adjacency + per-family λ state, repaired
//! in batches by [`DynamicGraph::apply`].

use nucleus_core::Kind;
use nucleus_graph::persist_io::{edge_list_hash, graph_fingerprint, GraphFingerprint};
use nucleus_graph::CsrGraph;

use crate::cores::CoreState;
use crate::ops::{coalesce, EdgeOp, Strategy, UpdateReport};
use crate::scoped::ScopedState;
use crate::truss::{common_neighbors, TrussState};

/// Per-family λ maintenance attached to the adjacency.
#[derive(Clone, Debug)]
enum State {
    /// (1,2): exact incremental subcore repair.
    Core(CoreState),
    /// (2,3): exact incremental sub-truss repair.
    Truss(TrussState),
    /// (1,3) / (2,4) / (3,4): scoped recompute over touched components.
    Scoped(ScopedState),
    /// No λ maintained; the graph is a mutable topology only.
    Topology,
}

/// A mutable graph with incrementally maintained nucleus λ values.
///
/// ```
/// use nucleus_core::Kind;
/// use nucleus_dynamic::{DynamicGraph, EdgeOp};
/// use nucleus_graph::CsrGraph;
///
/// let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0)]);
/// let mut dg = DynamicGraph::new(&g, Kind::Core);
/// let report = dg.apply(&[
///     EdgeOp::Insert(3, 0),
///     EdgeOp::Insert(3, 1),
///     EdgeOp::Insert(3, 2),
/// ]);
/// assert_eq!(report.applied, 3);
/// assert!(report.needs_reindex);
/// assert_eq!(dg.core_numbers(), Some(&[3, 3, 3, 3][..])); // K4 now
/// ```
#[derive(Clone, Debug)]
pub struct DynamicGraph {
    /// Sorted adjacency lists.
    adj: Vec<Vec<u32>>,
    /// Undirected edge count.
    m: usize,
    state: State,
    /// Bumped once per batch that changed the edge set.
    generation: u64,
}

fn adj_insert(adj: &mut [Vec<u32>], u: u32, v: u32) {
    let pu = adj[u as usize]
        .binary_search(&v)
        .expect_err("insert of present edge");
    adj[u as usize].insert(pu, v);
    let pv = adj[v as usize]
        .binary_search(&u)
        .expect_err("insert of present edge");
    adj[v as usize].insert(pv, u);
}

fn adj_remove(adj: &mut [Vec<u32>], u: u32, v: u32) {
    let pu = adj[u as usize]
        .binary_search(&v)
        .expect("delete of missing edge");
    adj[u as usize].remove(pu);
    let pv = adj[v as usize]
        .binary_search(&u)
        .expect("delete of missing edge");
    adj[v as usize].remove(pv);
}

/// The edges `(u, v)`, `u < v`, in ascending order: the canonical edge
/// list of the snapshot, read off the sorted adjacency.
fn canonical_edges(adj: &[Vec<u32>]) -> impl Iterator<Item = (u32, u32)> + '_ {
    adj.iter().enumerate().flat_map(|(u, ns)| {
        let u = u as u32;
        ns[ns.partition_point(|&v| v <= u)..]
            .iter()
            .map(move |&v| (u, v))
    })
}

fn snapshot_of(adj: &[Vec<u32>], m: usize) -> CsrGraph {
    let mut edges = Vec::with_capacity(m);
    edges.extend(canonical_edges(adj));
    CsrGraph::from_sorted_unique_edges(adj.len(), edges)
}

impl DynamicGraph {
    /// Wraps a static graph with maintained λ for `kind` (one full peel
    /// up front; every later [`apply`](Self::apply) is bounded repair).
    pub fn new(g: &CsrGraph, kind: Kind) -> DynamicGraph {
        let state = match kind {
            Kind::Core => State::Core(CoreState::new(g)),
            Kind::Truss => State::Truss(TrussState::new(g)),
            Kind::VertexTriangle | Kind::EdgeK4 | Kind::Nucleus34 => {
                State::Scoped(ScopedState::new(g, kind))
            }
        };
        DynamicGraph {
            adj: (0..g.n() as u32).map(|v| g.neighbors(v).to_vec()).collect(),
            m: g.m(),
            state,
            generation: 0,
        }
    }

    /// Empty dynamic graph over `n` isolated vertices.
    pub fn with_vertices(n: usize, kind: Kind) -> DynamicGraph {
        DynamicGraph::new(&CsrGraph::from_edges(n, &[]), kind)
    }

    /// Mutable topology with **no** λ maintenance — the cheap
    /// source-of-truth for layers that re-prepare on their own schedule
    /// (the serve layer's mutable mode).
    pub fn topology(g: &CsrGraph) -> DynamicGraph {
        DynamicGraph {
            adj: (0..g.n() as u32).map(|v| g.neighbors(v).to_vec()).collect(),
            m: g.m(),
            state: State::Topology,
            generation: 0,
        }
    }

    /// The family whose λ is maintained, if any.
    pub fn kind(&self) -> Option<Kind> {
        match &self.state {
            State::Core(_) => Some(Kind::Core),
            State::Truss(_) => Some(Kind::Truss),
            State::Scoped(s) => Some(s.kind()),
            State::Topology => None,
        }
    }

    /// The repair strategy [`apply`](Self::apply) uses.
    pub fn strategy(&self) -> Strategy {
        match &self.state {
            State::Core(_) | State::Truss(_) => Strategy::Incremental,
            State::Scoped(_) => Strategy::ScopedRecompute,
            State::Topology => Strategy::TopologyOnly,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Batches applied so far that changed the edge set.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Neighbors of `v` (sorted).
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }

    /// Whether `{u, v}` is currently an edge.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.adj[u as usize].binary_search(&v).is_ok()
    }

    /// Snapshot into an immutable [`CsrGraph`].
    pub fn to_graph(&self) -> CsrGraph {
        snapshot_of(&self.adj, self.m)
    }

    /// Fingerprint of the *current* edge set, bit-identical to
    /// [`graph_fingerprint`] of [`to_graph`](Self::to_graph). Any
    /// applied batch changes it, which makes
    /// [`PreparedIndex::matches`](nucleus_core::PreparedIndex::matches)
    /// (and [`matches_fingerprint`](nucleus_core::PreparedIndex::matches_fingerprint))
    /// fail closed on indexes built for the pre-mutation graph.
    pub fn fingerprint(&self) -> GraphFingerprint {
        GraphFingerprint {
            n: self.n() as u64,
            m: self.m as u64,
            edge_hash: edge_list_hash(canonical_edges(&self.adj)),
        }
    }

    /// Maintained core numbers, when `kind` is (1,2).
    pub fn core_numbers(&self) -> Option<&[u32]> {
        match &self.state {
            State::Core(cs) => Some(cs.lambda()),
            _ => None,
        }
    }

    /// λ of edge `{u, v}` under (2,3) maintenance.
    pub fn lambda_of_edge(&self, u: u32, v: u32) -> Option<u32> {
        match &self.state {
            State::Truss(ts) => ts.lambda_of(u, v),
            _ => None,
        }
    }

    /// Maintained λ per cell id of `g`, which must be
    /// [`to_graph`](Self::to_graph) of the current state (cell ids are
    /// snapshot-relative for the edge and triangle families). `None`
    /// for topology-only graphs.
    pub fn lambda_snapshot(&self, g: &CsrGraph) -> Option<Vec<u32>> {
        debug_assert_eq!(graph_fingerprint(g), self.fingerprint());
        match &self.state {
            State::Core(cs) => Some(cs.lambda().to_vec()),
            State::Truss(ts) => Some(
                g.edges()
                    .map(|(_, u, v)| ts.lambda_of(u, v).expect("edge is tracked"))
                    .collect(),
            ),
            State::Scoped(ss) => Some(ss.snapshot_lambda(g)),
            State::Topology => None,
        }
    }

    /// Applies one batch: validates and coalesces the ops, mutates the
    /// adjacency, and repairs λ with the kind's strategy. Invalid ops
    /// (self-loops, out-of-range endpoints, no-op inserts/deletes) are
    /// counted in [`UpdateReport::skipped`], never applied.
    pub fn apply(&mut self, ops: &[EdgeOp]) -> UpdateReport {
        let batch = coalesce(ops, self.n(), |u, v| self.has_edge(u, v));
        let mut report = UpdateReport {
            skipped: batch.skipped,
            coalesced: batch.coalesced,
            strategy: self.strategy(),
            ..UpdateReport::default()
        };
        if batch.net.is_empty() {
            return report;
        }
        report.applied = batch.net.len();
        report.needs_reindex = true;
        self.generation += 1;
        let adj = &mut self.adj;
        let mut witnesses = Vec::new();
        let mut touched = Vec::new();
        for &op in &batch.net {
            let (u, v) = op.endpoints();
            if op.is_insert() {
                adj_insert(adj, u, v);
                report.inserted += 1;
                self.m += 1;
            } else {
                if let State::Truss(_) = self.state {
                    common_neighbors(adj, u, v, &mut witnesses);
                }
                adj_remove(adj, u, v);
                report.deleted += 1;
                self.m -= 1;
            }
            let stats = match &mut self.state {
                State::Core(cs) if op.is_insert() => cs.after_insert(adj, u, v),
                State::Core(cs) => cs.after_delete(adj, u, v),
                State::Truss(ts) if op.is_insert() => ts.after_insert(adj, u, v),
                State::Truss(ts) => ts.after_delete(adj, u, v, &witnesses),
                State::Scoped(_) => {
                    touched.extend([u, v]);
                    continue;
                }
                State::Topology => continue,
            };
            report.cells_changed += stats.changed;
            report.scope_cells += stats.scope;
        }
        if let State::Scoped(ss) = &mut self.state {
            let snapshot = snapshot_of(adj, self.m);
            (report.cells_changed, report.scope_cells) = ss.repair(&snapshot, &touched);
        }
        report
    }

    /// Rebuilds λ from scratch off the current topology — the reference
    /// the incremental paths are tested against, and a repair hatch.
    /// No-op for topology-only graphs.
    pub fn recompute(&mut self) {
        let g = snapshot_of(&self.adj, self.m);
        match &mut self.state {
            State::Core(cs) => cs.reset(&g),
            State::Truss(ts) => ts.reset(&g),
            State::Scoped(ss) => ss.reset(&g),
            State::Topology => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_against_recompute(dg: &DynamicGraph) {
        let g = dg.to_graph();
        let maintained = dg.lambda_snapshot(&g).expect("λ is maintained");
        let mut fresh = dg.clone();
        fresh.recompute();
        let expect = fresh.lambda_snapshot(&g).unwrap();
        assert_eq!(maintained, expect, "λ drifted from recompute");
    }

    #[test]
    fn core_k4_up_and_down() {
        let mut dg = DynamicGraph::with_vertices(4, Kind::Core);
        let edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        for (u, v) in edges {
            let r = dg.apply(&[EdgeOp::Insert(u, v)]);
            assert_eq!((r.applied, r.skipped), (1, 0));
            check_against_recompute(&dg);
        }
        assert_eq!(dg.core_numbers(), Some(&[3, 3, 3, 3][..]));
        for (u, v) in edges {
            dg.apply(&[EdgeOp::Delete(u, v)]);
            check_against_recompute(&dg);
        }
        assert_eq!(dg.m(), 0);
    }

    #[test]
    fn truss_builds_and_tears_a_clique() {
        let mut dg = DynamicGraph::with_vertices(5, Kind::Truss);
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        for &(u, v) in &edges {
            dg.apply(&[EdgeOp::Insert(u, v)]);
            check_against_recompute(&dg);
        }
        // K5: every edge sits in 3 triangles.
        assert_eq!(dg.lambda_of_edge(0, 1), Some(3));
        for &(u, v) in &edges {
            dg.apply(&[EdgeOp::Delete(u, v)]);
            check_against_recompute(&dg);
        }
    }

    #[test]
    fn truss_bridge_between_triangles_does_not_rise() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let mut dg = DynamicGraph::new(&g, Kind::Truss);
        dg.apply(&[EdgeOp::Insert(2, 3)]);
        check_against_recompute(&dg);
        assert_eq!(dg.lambda_of_edge(2, 3), Some(0));
        assert_eq!(dg.lambda_of_edge(0, 1), Some(1));
    }

    #[test]
    fn scoped_kind_repairs_only_touched_components() {
        // Two K4 components; churn one of them.
        let mut edges = Vec::new();
        for c in [0u32, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((c + i, c + j));
                }
            }
        }
        let g = CsrGraph::from_edges(8, &edges);
        for kind in [Kind::VertexTriangle, Kind::EdgeK4, Kind::Nucleus34] {
            let mut dg = DynamicGraph::new(&g, kind);
            assert_eq!(dg.strategy(), Strategy::ScopedRecompute);
            let r = dg.apply(&[EdgeOp::Delete(0, 1)]);
            assert_eq!(r.strategy, Strategy::ScopedRecompute);
            assert!(r.scope_cells > 0);
            check_against_recompute(&dg);
            dg.apply(&[EdgeOp::Insert(0, 1)]);
            check_against_recompute(&dg);
        }
    }

    #[test]
    fn report_accounting_and_fingerprint_invalidation() {
        let g = nucleus_gen::classic::complete(4);
        let mut dg = DynamicGraph::new(&g, Kind::Core);
        let before = dg.fingerprint();
        assert_eq!(before, graph_fingerprint(&dg.to_graph()));
        // One real delete, one no-op insert, one self-loop, one
        // cancel-out pair.
        let r = dg.apply(&[
            EdgeOp::Delete(0, 1),
            EdgeOp::Insert(0, 2), // already present
            EdgeOp::Insert(3, 3), // self-loop
            EdgeOp::Delete(2, 3),
            EdgeOp::Insert(2, 3), // cancels the delete
        ]);
        assert_eq!((r.applied, r.skipped, r.coalesced), (1, 2, 2));
        assert_eq!(r.applied + r.skipped + r.coalesced, 5);
        assert_eq!((r.inserted, r.deleted), (0, 1));
        assert!(r.needs_reindex);
        assert_eq!(dg.generation(), 1);
        let after = dg.fingerprint();
        assert_ne!(before, after);
        assert_eq!(after, graph_fingerprint(&dg.to_graph()));
        // A fully no-op batch leaves the fingerprint and epoch alone.
        let r = dg.apply(&[EdgeOp::Delete(0, 1)]);
        assert_eq!((r.applied, r.skipped), (0, 1));
        assert!(!r.needs_reindex);
        assert_eq!(dg.generation(), 1);
        assert_eq!(dg.fingerprint(), after);
    }

    #[test]
    fn degree_preserving_rewire_changes_the_fingerprint() {
        // The 4-cycle 0-1-2-3 rewired into 0-2-1-3: same n, m and
        // degrees, a different edge set.
        let g = nucleus_gen::classic::cycle(4);
        let mut dg = DynamicGraph::topology(&g);
        let before = dg.fingerprint();
        let r = dg.apply(&[
            EdgeOp::Delete(0, 1),
            EdgeOp::Delete(2, 3),
            EdgeOp::Insert(0, 2),
            EdgeOp::Insert(1, 3),
        ]);
        assert_eq!(r.applied, 4);
        assert!((0..4).all(|v| dg.neighbors(v).len() == g.degree(v)));
        assert_ne!(dg.fingerprint(), before);
        assert_eq!(dg.fingerprint(), graph_fingerprint(&dg.to_graph()));
    }

    #[test]
    fn topology_mode_tracks_edges_only() {
        let g = nucleus_gen::classic::cycle(5);
        let mut dg = DynamicGraph::topology(&g);
        assert_eq!(dg.kind(), None);
        assert_eq!(dg.strategy(), Strategy::TopologyOnly);
        let r = dg.apply(&[EdgeOp::Insert(0, 2)]);
        assert_eq!(r.strategy, Strategy::TopologyOnly);
        assert_eq!(r.applied, 1);
        assert!(dg.lambda_snapshot(&dg.to_graph()).is_none());
        assert_eq!(dg.m(), 6);
    }

    #[test]
    fn batched_apply_matches_one_by_one() {
        let g = nucleus_gen::karate::karate_club();
        let ops = [
            EdgeOp::Insert(0, 15),
            EdgeOp::Delete(0, 1),
            EdgeOp::Insert(20, 25),
            EdgeOp::Delete(33, 32),
            EdgeOp::Insert(5, 24),
        ];
        for kind in [Kind::Core, Kind::Truss] {
            let mut batched = DynamicGraph::new(&g, kind);
            batched.apply(&ops);
            let mut serial = DynamicGraph::new(&g, kind);
            for &op in &ops {
                serial.apply(&[op]);
            }
            let snap = batched.to_graph();
            assert_eq!(
                batched.lambda_snapshot(&snap),
                serial.lambda_snapshot(&snap),
                "{kind:?}"
            );
            check_against_recompute(&batched);
        }
    }

    /// Per-batch `(cells_changed, scope_cells)` of the (2,3) maintainer
    /// over a smaller graph streamed as the `streaming_cores` example
    /// streams: 32-op batches of inserts, with a random earlier edge
    /// deleted 10% of the time.
    fn truss_stream_counts() -> Vec<(usize, usize)> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let target = nucleus_gen::holme_kim::holme_kim(150, 4, 0.7, 31);
        let mut dg = DynamicGraph::with_vertices(target.n(), Kind::Truss);
        let mut rng = StdRng::seed_from_u64(7);
        let (mut inserted, mut pending, mut counts) = (Vec::new(), Vec::new(), Vec::new());
        let edges: Vec<(u32, u32)> = target.edges().map(|(_, u, v)| (u, v)).collect();
        for (i, &(u, v)) in edges.iter().enumerate() {
            pending.push(EdgeOp::Insert(u, v));
            inserted.push((u, v));
            if rng.gen_bool(0.1) && inserted.len() > 10 {
                let (a, b) = inserted.swap_remove(rng.gen_range(0..inserted.len()));
                pending.push(EdgeOp::Delete(a, b));
            }
            if pending.len() >= 32 || i + 1 == edges.len() {
                let r = dg.apply(&pending);
                counts.push((r.cells_changed, r.scope_cells));
                pending.clear();
            }
        }
        counts
    }

    #[test]
    fn truss_repair_counts_are_deterministic() {
        // Each fresh state hashes with its own random seed, so a count
        // that depended on hash-map iteration order would differ here.
        let first = truss_stream_counts();
        for _ in 0..3 {
            assert_eq!(truss_stream_counts(), first);
        }
    }
}
