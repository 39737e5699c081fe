//! The canonical hierarchy of (r, s) nuclei.
//!
//! Every algorithm in this crate (Naive, DFT, FND, LCPS) reduces its raw
//! output to the same canonical tree:
//!
//! * node 0 is the **root** (λ = 0, the whole graph); cells lying in no
//!   container (λ = 0) belong directly to it;
//! * every other node is **one k-(r,s) nucleus** with `k = node.lambda`,
//!   holding as `cells` the *delta*: the member cells whose λ equals `k`
//!   (members with larger λ live in descendant nodes);
//! * a child's λ is strictly greater than its parent's, and the full
//!   member set of a nucleus is its subtree's cell union;
//! * non-root nodes are sorted by `(λ, smallest delta cell)`, making
//!   equal decompositions structurally identical (`==`) regardless of
//!   which algorithm produced them.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

/// Sentinel for "no node" (the root's parent).
pub const NO_NODE: u32 = u32::MAX;

/// One nucleus in the canonical hierarchy.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyNode {
    /// The k of this k-(r,s) nucleus (0 only for the root).
    pub lambda: u32,
    /// Parent node id; [`NO_NODE`] for the root.
    pub parent: u32,
    /// Child node ids (sorted ascending).
    pub children: Vec<u32>,
    /// Delta cells: members with λ exactly equal to `lambda`, sorted.
    pub cells: Vec<u32>,
    /// Total member count of the nucleus (delta + all descendants).
    pub subtree_cells: u64,
}

/// Canonical hierarchy of all k-(r,s) nuclei of a graph.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// r of the decomposition.
    pub r: u32,
    /// s of the decomposition.
    pub s: u32,
    nodes: Vec<HierarchyNode>,
    /// Owning node per cell (the node whose delta contains it).
    cell_node: Vec<u32>,
    /// λ per cell (copied from the peeling).
    lambda: Vec<u32>,
    max_lambda: u32,
    /// Lazily-built point-lookup index (see [`HierarchyIndex`]): built
    /// at most once, on the first [`Hierarchy::nucleus_cells`] /
    /// [`Hierarchy::nuclei_at`] style query, then shared by every later
    /// call — including concurrent callers, which is what makes the
    /// read path of a served hierarchy lock-free after warm-up.
    index: OnceLock<HierarchyIndex>,
}

/// Memoized constant-time lookup structures over a finished hierarchy.
///
/// Before this index existed, [`Hierarchy::nucleus_cells`] re-walked
/// the subtree (allocating a stack) per call and
/// [`Hierarchy::nuclei_at`] re-scanned *every* node per call — fine for
/// one-shot reports, pathological for a query service answering
/// millions of point lookups. The index is built once, lazily, behind a
/// [`OnceLock`] (the same pattern the peeling spaces use for their lazy
/// ω counts) and turns both into slice lookups:
///
/// * `subtree_cells[subtree_start[id] ..]` — all member cells of node
///   `id`, laid out so every subtree is one contiguous run. The order
///   reproduces the historical stack-walk order exactly (node delta
///   first, then child subtrees in descending child order), so callers
///   observe bit-identical output, just without the walk.
/// * `level_nodes[level_start[k] .. level_start[k+1]]` — the k-(r,s)
///   nuclei for each `k`, ascending node id, same as the old full scan.
///   The run lengths are [`Hierarchy::level_profile`].
#[derive(Clone, Debug)]
struct HierarchyIndex {
    /// Per node: offset of its subtree's cell run in `subtree_cells`.
    subtree_start: Vec<u32>,
    /// All cells, concatenated in pre-order (children descending).
    subtree_cells: Vec<u32>,
    /// CSR offsets into `level_nodes`, indexed by k (len max_λ + 2).
    level_start: Vec<usize>,
    /// Concatenated `nuclei_at(k)` answers for k = 0..=max_λ.
    level_nodes: Vec<u32>,
}

impl Hierarchy {
    /// Id of the root node (always 0).
    pub const ROOT: u32 = 0;

    /// All nodes, root first.
    pub fn nodes(&self) -> &[HierarchyNode] {
        &self.nodes
    }

    /// A node by id.
    pub fn node(&self, id: u32) -> &HierarchyNode {
        &self.nodes[id as usize]
    }

    /// Number of nodes including the root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Number of *nuclei* (non-root nodes).
    pub fn nucleus_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Maximum λ over all cells.
    pub fn max_lambda(&self) -> u32 {
        self.max_lambda
    }

    /// λ of a cell.
    pub fn lambda_of(&self, cell: u32) -> u32 {
        self.lambda[cell as usize]
    }

    /// λ of every cell.
    pub fn lambdas(&self) -> &[u32] {
        &self.lambda
    }

    /// The node whose delta owns `cell`. For a cell with λ = k this node
    /// is the **maximum k-(r,s) nucleus** of the cell (Definition 3).
    pub fn node_of_cell(&self, cell: u32) -> u32 {
        self.cell_node[cell as usize]
    }

    /// The memoized lookup index, built on first use. Interior state is
    /// immutable after canonicalization, so the build is race-free and
    /// every later call — from any thread — is a plain read.
    fn index(&self) -> &HierarchyIndex {
        self.index.get_or_init(|| {
            // Subtree CSR: one stack walk from the root. Children are
            // pushed ascending and popped descending, and a popped
            // node's children land *above* its unvisited siblings, so
            // this is a genuine pre-order DFS: every subtree's cells
            // come out contiguous, and the run for any node reproduces
            // the historical per-call stack order byte for byte.
            let mut subtree_start = vec![0u32; self.nodes.len()];
            let mut subtree_cells = Vec::with_capacity(self.lambda.len());
            let mut stack = vec![Self::ROOT];
            while let Some(x) = stack.pop() {
                let node = &self.nodes[x as usize];
                subtree_start[x as usize] = subtree_cells.len() as u32;
                subtree_cells.extend_from_slice(&node.cells);
                stack.extend_from_slice(&node.children);
            }
            debug_assert_eq!(subtree_cells.len(), self.lambda.len());
            // Level CSR: counting sort over the k-spans (parent.λ, λ]
            // of every non-root node, filled in ascending node id so
            // each per-k list matches the old full-scan order.
            let span = |node: &HierarchyNode| {
                self.nodes[node.parent as usize].lambda as usize + 1..=node.lambda as usize
            };
            let levels = self.max_lambda as usize + 1;
            let mut level_start = vec![0usize; levels + 1];
            for node in self.nodes.iter().skip(1) {
                for k in span(node) {
                    level_start[k + 1] += 1;
                }
            }
            for k in 0..levels {
                level_start[k + 1] += level_start[k];
            }
            let mut fill = level_start.clone();
            let mut level_nodes = vec![0u32; level_start[levels]];
            for (id, node) in self.nodes.iter().enumerate().skip(1) {
                for k in span(node) {
                    level_nodes[fill[k]] = id as u32;
                    fill[k] += 1;
                }
            }
            HierarchyIndex {
                subtree_start,
                subtree_cells,
                level_start,
                level_nodes,
            }
        })
    }

    /// All member cells of the nucleus rooted at `id` (its subtree).
    ///
    /// Served from the memoized index: the first call over a hierarchy
    /// builds it (O(cells)), every later call is a slice copy.
    pub fn nucleus_cells(&self, id: u32) -> Vec<u32> {
        self.nucleus_cells_slice(id).to_vec()
    }

    /// Borrowed, allocation-free view of [`Hierarchy::nucleus_cells`] —
    /// the point-lookup primitive a query service serves from.
    pub fn nucleus_cells_slice(&self, id: u32) -> &[u32] {
        let idx = self.index();
        let start = idx.subtree_start[id as usize] as usize;
        &idx.subtree_cells[start..start + self.nodes[id as usize].subtree_cells as usize]
    }

    /// Ids of all k-(r,s) nuclei for a fixed `k`: nodes with λ ≥ k whose
    /// parent has λ < k. (A node with λ = 5 over a λ = 2 parent *is* the
    /// 3-, 4- and 5-nucleus of its cells — the sets coincide.)
    ///
    /// Served from the memoized index; see
    /// [`Hierarchy::nuclei_at_slice`] for the allocation-free form.
    pub fn nuclei_at(&self, k: u32) -> Vec<u32> {
        self.nuclei_at_slice(k).to_vec()
    }

    /// Borrowed form of [`Hierarchy::nuclei_at`] (empty for
    /// `k > max_lambda`).
    pub fn nuclei_at_slice(&self, k: u32) -> &[u32] {
        assert!(k >= 1, "k = 0 is the whole graph (the root)");
        if k > self.max_lambda {
            return &[];
        }
        let idx = self.index();
        &idx.level_nodes[idx.level_start[k as usize]..idx.level_start[k as usize + 1]]
    }

    /// Leaf nuclei (no children): the locally densest subgraphs.
    pub fn leaves(&self) -> Vec<u32> {
        (1..self.nodes.len() as u32)
            .filter(|&id| self.nodes[id as usize].children.is_empty())
            .collect()
    }

    /// The node whose subtree is the k-(r,s) nucleus containing `cell`,
    /// or `None` when `λ(cell) < k` (the cell is in no such nucleus).
    ///
    /// This is the "community search" primitive: *the* k-core /
    /// k-truss-community of a query vertex or edge, in O(depth).
    pub fn nucleus_of_cell_at(&self, cell: u32, k: u32) -> Option<u32> {
        if k == 0 || self.lambda[cell as usize] < k {
            return None;
        }
        // Walk up from the owning node to the shallowest node with λ ≥ k.
        let mut cur = self.cell_node[cell as usize];
        loop {
            let p = self.nodes[cur as usize].parent;
            if p == NO_NODE || self.nodes[p as usize].lambda < k {
                return Some(cur);
            }
            cur = p;
        }
    }

    /// Per-level nucleus counts: `profile()[k]` = number of k-(r,s)
    /// nuclei (index 0 is unused; the root is not a nucleus). Read off
    /// the memoized level CSR in O(max λ).
    pub fn level_profile(&self) -> Vec<usize> {
        self.index()
            .level_start
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect()
    }

    /// Walks from `id` to the root, yielding the chain of enclosing
    /// nuclei (excluding the root).
    pub fn ancestors(&self, id: u32) -> Vec<u32> {
        let mut out = vec![];
        let mut cur = self.nodes[id as usize].parent;
        while cur != NO_NODE && cur != Self::ROOT {
            out.push(cur);
            cur = self.nodes[cur as usize].parent;
        }
        out
    }

    /// Depth of the hierarchy (root = 0).
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.nodes.len()];
        let mut max = 0;
        // children always follow parents? Not guaranteed by id order for
        // the root's children — but parent ids are smaller than child ids
        // only for λ ordering... compute defensively via BFS.
        let mut stack = vec![Self::ROOT];
        while let Some(x) = stack.pop() {
            for &c in &self.nodes[x as usize].children {
                depth[c as usize] = depth[x as usize] + 1;
                max = max.max(depth[c as usize]);
                stack.push(c);
            }
        }
        max
    }

    /// Structural invariant check; returns a description of the first
    /// violation. Cheap enough to run in tests on every result.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.nodes.len();
        if n == 0 {
            return Err("no root".into());
        }
        if self.nodes[0].parent != NO_NODE || self.nodes[0].lambda != 0 {
            return Err("node 0 is not a λ=0 root".into());
        }
        let mut seen_cells = vec![false; self.lambda.len()];
        for (id, node) in self.nodes.iter().enumerate() {
            if id > 0 {
                let p = node.parent as usize;
                if p >= n {
                    return Err(format!("node {id}: bad parent"));
                }
                if self.nodes[p].lambda >= node.lambda {
                    return Err(format!(
                        "node {id}: parent λ {} not smaller than λ {}",
                        self.nodes[p].lambda, node.lambda
                    ));
                }
                if !self.nodes[p].children.contains(&(id as u32)) {
                    return Err(format!("node {id} missing from parent's children"));
                }
                if node.cells.is_empty() {
                    return Err(format!("node {id}: empty delta"));
                }
            }
            if node.cells.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("node {id}: cells not sorted/unique"));
            }
            for &c in &node.cells {
                if seen_cells[c as usize] {
                    return Err(format!("cell {c} in two nodes"));
                }
                seen_cells[c as usize] = true;
                if self.lambda[c as usize] != node.lambda {
                    return Err(format!(
                        "cell {c}: λ {} but owner node λ {}",
                        self.lambda[c as usize], node.lambda
                    ));
                }
                if self.cell_node[c as usize] != id as u32 {
                    return Err(format!("cell {c}: cell_node mismatch"));
                }
            }
            for &c in &node.children {
                if self.nodes[c as usize].parent != id as u32 {
                    return Err(format!("child {c} of {id}: parent mismatch"));
                }
            }
        }
        if let Some(missing) = seen_cells.iter().position(|&s| !s) {
            return Err(format!("cell {missing} not assigned to any node"));
        }
        // subtree counts — via an explicit walk, NOT the memoized
        // index: the index is built from these very fields, so checking
        // against it would be vacuous (and a corrupt tree could make
        // the build itself misbehave).
        for id in 0..n as u32 {
            let mut expect = 0u64;
            let mut stack = vec![id];
            while let Some(x) = stack.pop() {
                let node = &self.nodes[x as usize];
                expect += node.cells.len() as u64;
                stack.extend_from_slice(&node.children);
            }
            if self.nodes[id as usize].subtree_cells != expect {
                return Err(format!("node {id}: subtree count mismatch"));
            }
        }
        Ok(())
    }
}

impl PartialEq for Hierarchy {
    /// Canonical equality: same (r, s), same λ per cell, and structurally
    /// identical node lists (canonical ordering makes this well-defined
    /// across algorithms). The memoized index is derived state and never
    /// participates.
    fn eq(&self, other: &Self) -> bool {
        self.r == other.r
            && self.s == other.s
            && self.lambda == other.lambda
            && self.nodes == other.nodes
    }
}

impl Eq for Hierarchy {}

// Hand-written (not derived) so the lazy index stays out of the wire
// format: the JSON shape — field names and order — is exactly what the
// pre-index derive produced, so exported hierarchies are byte-stable
// across the change.
impl Serialize for Hierarchy {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("r".to_string(), self.r.to_value()),
            ("s".to_string(), self.s.to_value()),
            ("nodes".to_string(), self.nodes.to_value()),
            ("cell_node".to_string(), self.cell_node.to_value()),
            ("lambda".to_string(), self.lambda.to_value()),
            ("max_lambda".to_string(), self.max_lambda.to_value()),
        ])
    }
}

impl Deserialize for Hierarchy {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Hierarchy {
            r: Deserialize::from_value(v.field("r")?)?,
            s: Deserialize::from_value(v.field("s")?)?,
            nodes: Deserialize::from_value(v.field("nodes")?)?,
            cell_node: Deserialize::from_value(v.field("cell_node")?)?,
            lambda: Deserialize::from_value(v.field("lambda")?)?,
            max_lambda: Deserialize::from_value(v.field("max_lambda")?)?,
            index: OnceLock::new(),
        })
    }
}

/// Pre-canonical hierarchy: what algorithms hand over. Nodes may appear
/// in any order with any id scheme; `parent == NO_NODE` means "child of
/// the root". Empty raw nodes are allowed and get contracted away.
#[derive(Debug, Default)]
pub struct RawHierarchy {
    /// (λ, parent raw-id or NO_NODE, delta cells)
    pub nodes: Vec<RawNode>,
}

/// One pre-canonical node.
#[derive(Debug)]
pub struct RawNode {
    /// λ of the nucleus.
    pub lambda: u32,
    /// Raw id of the parent node, or [`NO_NODE`] for "under the root".
    pub parent: u32,
    /// Delta cells (need not be sorted).
    pub cells: Vec<u32>,
}

impl RawHierarchy {
    /// Adds a node, returning its raw id.
    pub fn push(&mut self, lambda: u32, parent: u32, cells: Vec<u32>) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(RawNode {
            lambda,
            parent,
            cells,
        });
        id
    }

    /// Canonicalizes into a [`Hierarchy`].
    ///
    /// `lambda` is the per-cell λ array from the peeling; cells not owned
    /// by any raw node must have λ = 0 and are attached to the root.
    pub fn into_hierarchy(
        mut self,
        r: u32,
        s: u32,
        lambda: Vec<u32>,
        max_lambda: u32,
    ) -> Hierarchy {
        let raw_n = self.nodes.len();
        // 1. Contract empty raw nodes: splice them out by reparenting
        //    their children transitively past them. Emptiness is
        //    snapshotted up front because cells are moved out below.
        let is_empty: Vec<bool> = self.nodes.iter().map(|n| n.cells.is_empty()).collect();
        let resolve = move |nodes: &Vec<RawNode>, mut p: u32| -> u32 {
            while p != NO_NODE && is_empty[p as usize] {
                p = nodes[p as usize].parent;
            }
            p
        };
        // 2. Canonical order for surviving nodes: (λ, min cell).
        let mut keyed: Vec<(u32, u32, u32)> = Vec::new(); // (λ, min_cell, raw id)
        for (i, node) in self.nodes.iter().enumerate() {
            if !node.cells.is_empty() {
                let min_cell = *node.cells.iter().min().expect("non-empty");
                keyed.push((node.lambda, min_cell, i as u32));
            }
        }
        keyed.sort_unstable();
        let mut canon_id = vec![NO_NODE; raw_n];
        for (pos, &(_, _, raw)) in keyed.iter().enumerate() {
            canon_id[raw as usize] = pos as u32 + 1; // 0 is the root
        }

        let n_cells = lambda.len();
        let mut nodes: Vec<HierarchyNode> = Vec::with_capacity(keyed.len() + 1);
        nodes.push(HierarchyNode {
            lambda: 0,
            parent: NO_NODE,
            children: vec![],
            cells: vec![],
            subtree_cells: 0,
        });
        let mut cell_node = vec![Hierarchy::ROOT; n_cells];
        for &(lam, _, raw) in &keyed {
            let raw_node = &mut self.nodes[raw as usize];
            let mut cells = std::mem::take(&mut raw_node.cells);
            cells.sort_unstable();
            let id = nodes.len() as u32;
            for &c in &cells {
                cell_node[c as usize] = id;
            }
            nodes.push(HierarchyNode {
                lambda: lam,
                parent: NO_NODE, // fixed below
                children: vec![],
                cells,
                subtree_cells: 0,
            });
        }
        // Root delta: unassigned cells (must be λ = 0).
        let root_cells: Vec<u32> = (0..n_cells as u32)
            .filter(|&c| cell_node[c as usize] == Hierarchy::ROOT)
            .collect();
        debug_assert!(root_cells.iter().all(|&c| lambda[c as usize] == 0));
        nodes[0].cells = root_cells;
        // 3. Parents in canonical ids.
        for (pos, &(_, _, raw)) in keyed.iter().enumerate() {
            let p_raw = resolve(&self.nodes, self.nodes[raw as usize].parent);
            let p = if p_raw == NO_NODE {
                Hierarchy::ROOT
            } else {
                canon_id[p_raw as usize]
            };
            nodes[pos + 1].parent = p;
        }
        // 4. Children lists.
        for id in 1..nodes.len() {
            let p = nodes[id].parent as usize;
            nodes[p].children.push(id as u32);
        }
        for node in &mut nodes {
            node.children.sort_unstable();
        }
        // 5. Subtree counts: a child's λ is strictly larger than its
        //    parent's, so its canonical id is larger too — one reverse
        //    sweep accumulates bottom-up.
        for id in (1..nodes.len()).rev() {
            nodes[id].subtree_cells += nodes[id].cells.len() as u64;
            let sub = nodes[id].subtree_cells;
            let p = nodes[id].parent as usize;
            nodes[p].subtree_cells += sub;
        }
        nodes[0].subtree_cells += nodes[0].cells.len() as u64;

        Hierarchy {
            r,
            s,
            nodes,
            cell_node,
            lambda,
            max_lambda,
            index: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built: cells 0..6; node A λ=1 {0,1}, node B λ=3 {2,3} under A,
    /// node C λ=2 {4,5} under A... (invalid: B(3) under A(1), C(2) under A)
    /// cell 6 has λ=0 → root.
    fn sample_raw() -> (RawHierarchy, Vec<u32>) {
        let mut raw = RawHierarchy::default();
        let a = raw.push(1, NO_NODE, vec![1, 0]);
        let _b = raw.push(3, a, vec![3, 2]);
        let _c = raw.push(2, a, vec![5, 4]);
        let lambda = vec![1, 1, 3, 3, 2, 2, 0];
        (raw, lambda)
    }

    #[test]
    fn canonicalization_orders_and_links() {
        let (raw, lambda) = sample_raw();
        let h = raw.into_hierarchy(1, 2, lambda, 3);
        h.validate().expect("valid");
        assert_eq!(h.len(), 4);
        // canonical order: root, then λ=1{0,1}, λ=2{4,5}, λ=3{2,3}
        assert_eq!(h.node(1).lambda, 1);
        assert_eq!(h.node(2).lambda, 2);
        assert_eq!(h.node(3).lambda, 3);
        assert_eq!(h.node(1).cells, vec![0, 1]);
        assert_eq!(h.node(2).parent, 1);
        assert_eq!(h.node(3).parent, 1);
        assert_eq!(h.node(0).cells, vec![6]);
        assert_eq!(h.node(1).subtree_cells, 6);
        assert_eq!(h.node(0).subtree_cells, 7);
    }

    #[test]
    fn node_and_cell_queries() {
        let (raw, lambda) = sample_raw();
        let h = raw.into_hierarchy(1, 2, lambda, 3);
        assert_eq!(h.node_of_cell(2), 3);
        assert_eq!(h.node_of_cell(6), Hierarchy::ROOT);
        let mut cells = h.nucleus_cells(1);
        cells.sort_unstable();
        assert_eq!(cells, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(h.nuclei_at(1), vec![1]);
        assert_eq!(h.nuclei_at(2), vec![2, 3]);
        assert_eq!(h.nuclei_at(3), vec![3]);
        assert_eq!(h.leaves(), vec![2, 3]);
        assert_eq!(h.ancestors(3), vec![1]);
        assert_eq!(h.depth(), 2);
        assert_eq!(h.max_lambda(), 3);
        assert_eq!(h.nucleus_count(), 3);
    }

    #[test]
    fn per_cell_level_queries() {
        let (raw, lambda) = sample_raw();
        let h = raw.into_hierarchy(1, 2, lambda, 3);
        // cell 2 has λ=3: its 3-nucleus is node 3, its 1-nucleus is node 1
        assert_eq!(h.nucleus_of_cell_at(2, 3), Some(3));
        assert_eq!(h.nucleus_of_cell_at(2, 2), Some(3)); // same set at k=2
        assert_eq!(h.nucleus_of_cell_at(2, 1), Some(1));
        assert_eq!(h.nucleus_of_cell_at(2, 4), None);
        // cell 0 has λ=1
        assert_eq!(h.nucleus_of_cell_at(0, 1), Some(1));
        assert_eq!(h.nucleus_of_cell_at(0, 2), None);
        // λ=0 cell is in no nucleus
        assert_eq!(h.nucleus_of_cell_at(6, 1), None);
        // consistency with nuclei_at
        for k in 1..=3 {
            for id in h.nuclei_at(k) {
                for c in h.nucleus_cells(id) {
                    assert_eq!(h.nucleus_of_cell_at(c, k), Some(id), "k={k}");
                }
            }
        }
    }

    #[test]
    fn level_profile_counts_implicit_levels() {
        let (raw, lambda) = sample_raw();
        let h = raw.into_hierarchy(1, 2, lambda, 3);
        // k=1: node1; k=2: node2 + node3 (which spans k=2..3); k=3: node3
        assert_eq!(h.level_profile(), vec![0, 1, 2, 1]);
        for k in 1..=3 {
            assert_eq!(h.level_profile()[k as usize], h.nuclei_at(k).len());
        }
    }

    #[test]
    fn empty_nodes_are_contracted() {
        let mut raw = RawHierarchy::default();
        let ghost = raw.push(1, NO_NODE, vec![]);
        let _real = raw.push(2, ghost, vec![0, 1]);
        let lambda = vec![2, 2];
        let h = raw.into_hierarchy(1, 2, lambda, 2);
        h.validate().expect("valid");
        assert_eq!(h.len(), 2);
        assert_eq!(h.node(1).parent, Hierarchy::ROOT);
    }

    #[test]
    fn equality_is_canonical() {
        let (raw1, lambda1) = sample_raw();
        let h1 = raw1.into_hierarchy(1, 2, lambda1, 3);
        // same content, different raw ordering / parent wiring order
        let mut raw2 = RawHierarchy::default();
        let a = raw2.push(1, NO_NODE, vec![0, 1]);
        let _c = raw2.push(2, a, vec![4, 5]);
        let _b = raw2.push(3, a, vec![2, 3]);
        let h2 = raw2.into_hierarchy(1, 2, vec![1, 1, 3, 3, 2, 2, 0], 3);
        assert_eq!(h1, h2);
    }

    #[test]
    fn validate_catches_breakage() {
        let (raw, lambda) = sample_raw();
        let mut h = raw.into_hierarchy(1, 2, lambda, 3);
        h.nodes[2].lambda = 1; // parent λ no longer smaller? (parent is 1, λ=1)
        assert!(h.validate().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let (raw, lambda) = sample_raw();
        let h = raw.into_hierarchy(1, 2, lambda, 3);
        let json = serde_json::to_string(&h).unwrap();
        let back: Hierarchy = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
        // The manual impls keep the pre-index field layout: the lazy
        // lookup index must never leak into the wire format, even after
        // it has been built.
        let _ = h.nucleus_cells(0);
        assert_eq!(serde_json::to_string(&h).unwrap(), json);
        for field in ["\"r\"", "\"s\"", "\"nodes\"", "\"cell_node\"", "\"lambda\""] {
            assert!(json.contains(field), "{json}");
        }
        assert!(!json.contains("index"), "{json}");
    }

    /// The pre-index implementations, kept verbatim as oracles: the
    /// memoized CSR lookups must reproduce their output — order
    /// included — on every node and level.
    fn walk_nucleus_cells(h: &Hierarchy, id: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(x) = stack.pop() {
            let node = h.node(x);
            out.extend_from_slice(&node.cells);
            stack.extend_from_slice(&node.children);
        }
        out
    }

    fn scan_nuclei_at(h: &Hierarchy, k: u32) -> Vec<u32> {
        let mut out = vec![];
        for (id, node) in h.nodes().iter().enumerate().skip(1) {
            if node.lambda >= k && h.node(node.parent).lambda < k {
                out.push(id as u32);
            }
        }
        out
    }

    #[test]
    fn memoized_index_matches_the_walking_oracles() {
        // A deeper, bushier tree than sample_raw: two branches under a
        // λ=1 node, one of them nested twice, plus a second top-level
        // nucleus and λ=0 strays.
        let mut raw = RawHierarchy::default();
        let a = raw.push(1, NO_NODE, vec![0, 1, 2]);
        let b = raw.push(2, a, vec![3, 4]);
        let _c = raw.push(4, b, vec![5]);
        let _d = raw.push(3, b, vec![6, 7]);
        let _e = raw.push(2, a, vec![8]);
        let f = raw.push(1, NO_NODE, vec![9]);
        let _g = raw.push(5, f, vec![10, 11]);
        let lambda = vec![1, 1, 1, 2, 2, 4, 3, 3, 2, 1, 5, 5, 0, 0];
        let h = raw.into_hierarchy(2, 3, lambda, 5);
        h.validate().expect("valid");
        for id in 0..h.len() as u32 {
            assert_eq!(
                h.nucleus_cells(id),
                walk_nucleus_cells(&h, id),
                "node {id}: memoized cells diverge from the walk"
            );
            assert_eq!(h.nucleus_cells_slice(id), &walk_nucleus_cells(&h, id)[..]);
        }
        for k in 1..=h.max_lambda() {
            assert_eq!(h.nuclei_at(k), scan_nuclei_at(&h, k), "k={k}");
            assert_eq!(h.nuclei_at_slice(k), &scan_nuclei_at(&h, k)[..], "k={k}");
            assert_eq!(h.level_profile()[k as usize], scan_nuclei_at(&h, k).len());
        }
        assert_eq!(h.level_profile().len(), h.max_lambda() as usize + 1);
        assert_eq!(h.level_profile()[0], 0);
        // Past the deepest level: empty, no panic.
        assert!(h.nuclei_at_slice(h.max_lambda() + 1).is_empty());
        assert!(h.nuclei_at(h.max_lambda() + 7).is_empty());
    }

    #[test]
    fn memoized_index_handles_degenerate_hierarchies() {
        // Root-only: every cell has λ = 0.
        let h = RawHierarchy::default().into_hierarchy(1, 2, vec![0, 0, 0], 0);
        assert_eq!(h.nucleus_cells(Hierarchy::ROOT), vec![0, 1, 2]);
        assert!(h.nuclei_at_slice(1).is_empty());
        assert_eq!(h.level_profile(), vec![0]);
        // Zero cells entirely.
        let h = RawHierarchy::default().into_hierarchy(1, 2, vec![], 0);
        assert!(h.nucleus_cells(Hierarchy::ROOT).is_empty());
        assert!(h.nucleus_cells_slice(Hierarchy::ROOT).is_empty());
        assert_eq!(h.level_profile(), vec![0]);
    }

    #[test]
    fn memoized_index_is_shared_across_threads() {
        let (raw, lambda) = sample_raw();
        let h = raw.into_hierarchy(1, 2, lambda, 3);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for id in 0..h.len() as u32 {
                        assert_eq!(h.nucleus_cells(id), walk_nucleus_cells(&h, id));
                    }
                    for k in 1..=h.max_lambda() {
                        assert_eq!(h.nuclei_at(k), scan_nuclei_at(&h, k));
                    }
                });
            }
        });
    }
}
