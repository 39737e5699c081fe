//! Scoped recompute for the higher families ((1,3), (2,4), (3,4)):
//! no exact incremental repair exists here yet, so a batch re-peels the
//! *touched connected components* only and leaves every other
//! component's λ untouched. The [`UpdateReport`](crate::UpdateReport)
//! says so via [`Strategy::ScopedRecompute`](crate::Strategy).
//!
//! Why components are the right scope: λ of a cell depends only on its
//! connected component (K_s-connectivity refines ordinary
//! connectivity), and a batch's applied ops change edges only inside
//! the components containing their endpoints — so the union of those
//! components, taken in the *post-batch* graph, covers every cell that
//! can change, including cells destroyed by deletions (a destroyed
//! container contains both endpoints of some deleted edge).
//!
//! λ is keyed by the cell's vertex set (vertex for (1,3), edge for
//! (2,4), triangle for (3,4)), which is stable across the subgraph
//! re-indexing a scoped peel implies.

use std::collections::HashMap;

use nucleus_core::peel::peel;
use nucleus_core::space::{EdgeK4Space, PeelSpace, TriangleSpace, VertexTriangleSpace};
use nucleus_core::Kind;
use nucleus_graph::CsrGraph;

/// A cell identity: its sorted vertices, `u32::MAX`-padded.
pub(crate) type CellKey = [u32; 3];

fn cell_key(vertices: &[u32]) -> CellKey {
    let mut key = [u32::MAX; 3];
    key[..vertices.len()].copy_from_slice(vertices);
    key[..vertices.len()].sort_unstable();
    key
}

/// λ per cell identity for one scoped family.
#[derive(Clone, Debug)]
pub(crate) struct ScopedState {
    kind: Kind,
    lambda: HashMap<CellKey, u32>,
}

/// Peels `g` under `kind`'s space and yields `(cell key, λ)` per cell,
/// with vertices mapped through `relabel` (identity for a full graph).
fn peel_cells<F: Fn(u32) -> u32>(kind: Kind, g: &CsrGraph, relabel: F) -> Vec<(CellKey, u32)> {
    fn collect<S: PeelSpace, F: Fn(u32) -> u32>(space: &S, relabel: F) -> Vec<(CellKey, u32)> {
        let lambda = peel(space).lambda;
        let mut verts = Vec::new();
        let mut out = Vec::with_capacity(lambda.len());
        for (cell, &l) in lambda.iter().enumerate() {
            verts.clear();
            space.cell_vertices(cell as u32, &mut verts);
            let global: Vec<u32> = verts.iter().map(|&v| relabel(v)).collect();
            out.push((cell_key(&global), l));
        }
        out
    }
    match kind {
        Kind::VertexTriangle => collect(&VertexTriangleSpace::new(g), relabel),
        Kind::EdgeK4 => collect(&EdgeK4Space::new(g), relabel),
        Kind::Nucleus34 => collect(&TriangleSpace::new(g), relabel),
        Kind::Core | Kind::Truss => {
            unreachable!("core and truss have exact incremental maintainers")
        }
    }
}

/// Enumerates the cell keys of `kind`'s space over `g`, in cell-id
/// order (no peel).
fn cell_keys(kind: Kind, g: &CsrGraph) -> Vec<CellKey> {
    fn collect<S: PeelSpace>(space: &S) -> Vec<CellKey> {
        let mut verts = Vec::new();
        (0..space.cell_count() as u32)
            .map(|cell| {
                verts.clear();
                space.cell_vertices(cell, &mut verts);
                cell_key(&verts)
            })
            .collect()
    }
    match kind {
        Kind::VertexTriangle => collect(&VertexTriangleSpace::new(g)),
        Kind::EdgeK4 => collect(&EdgeK4Space::new(g)),
        Kind::Nucleus34 => collect(&TriangleSpace::new(g)),
        Kind::Core | Kind::Truss => {
            unreachable!("core and truss have exact incremental maintainers")
        }
    }
}

impl ScopedState {
    /// The maintained family.
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// λ per cell id of the snapshot `g` (which must equal the current
    /// topology).
    pub fn snapshot_lambda(&self, g: &CsrGraph) -> Vec<u32> {
        cell_keys(self.kind, g)
            .into_iter()
            .map(|key| self.lambda[&key])
            .collect()
    }

    /// Initial λ via a full static peel of `g`.
    pub fn new(g: &CsrGraph, kind: Kind) -> ScopedState {
        ScopedState {
            kind,
            lambda: peel_cells(kind, g, |v| v).into_iter().collect(),
        }
    }

    /// Rebuilds λ wholesale from a snapshot (full recompute repair).
    pub fn reset(&mut self, g: &CsrGraph) {
        *self = ScopedState::new(g, self.kind);
    }

    /// Re-peels the components of `snapshot` (the *post-batch* graph)
    /// containing any endpoint in `touched`, replacing their cells' λ
    /// and dropping entries of cells those components no longer have.
    /// Returns (cells whose λ changed or vanished, region cell count).
    pub fn repair(&mut self, snapshot: &CsrGraph, touched: &[u32]) -> (usize, usize) {
        let n = snapshot.n();
        // Union of touched components, by BFS over the snapshot.
        let mut in_region = vec![false; n];
        let mut region: Vec<u32> = Vec::new();
        for &root in touched {
            if in_region[root as usize] {
                continue;
            }
            in_region[root as usize] = true;
            region.push(root);
            let mut head = region.len() - 1;
            while head < region.len() {
                let w = region[head];
                head += 1;
                for &x in snapshot.neighbors(w) {
                    if !in_region[x as usize] {
                        in_region[x as usize] = true;
                        region.push(x);
                    }
                }
            }
        }
        region.sort_unstable();
        // Drop every tracked cell touching the region; a cell with any
        // vertex inside has all vertices inside (cells are connected).
        let before: HashMap<CellKey, u32> = self
            .lambda
            .iter()
            .filter(|(key, _)| in_region[key[0] as usize])
            .map(|(k, v)| (*k, *v))
            .collect();
        self.lambda.retain(|key, _| !in_region[key[0] as usize]);
        // Induced subgraph over the region, then one scoped peel.
        let mut local_of = vec![u32::MAX; n];
        for (i, &v) in region.iter().enumerate() {
            local_of[v as usize] = i as u32;
        }
        let mut edges = Vec::new();
        for &v in &region {
            for &x in snapshot.neighbors(v) {
                if v < x {
                    edges.push((local_of[v as usize], local_of[x as usize]));
                }
            }
        }
        let sub = CsrGraph::from_edges(region.len(), &edges);
        let cells = peel_cells(self.kind, &sub, |v| region[v as usize]);
        let scope = cells.len();
        let mut changed = 0;
        for (key, l) in cells {
            if before.get(&key) != Some(&l) {
                changed += 1;
            }
            self.lambda.insert(key, l);
        }
        // Cells that existed before but not after (destroyed by deletes).
        changed += before
            .iter()
            .filter(|(key, _)| !self.lambda.contains_key(*key))
            .count();
        (changed, scope)
    }
}
