//! The canonical hierarchy of (r, s) nuclei.
//!
//! Every algorithm in this crate (Naive, DFT, FND, LCPS), and the
//! weighted cores, hands its raw output to one canonicalizer
//! ([`RawHierarchy::into_hierarchy`]), so all of them build the same
//! tree:
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
//!   which algorithm produced them. A parent's id is always below its
//!   children's.
//!
//! # Layout
//!
//! A [`Hierarchy`] is flat, immutable data, built once. Every cell id is
//! stored once, in one array in pre-order: a node's *run* is its sorted
//! delta followed by its children's runs in descending child id. So the
//! member set of every nucleus is one contiguous run
//! ([`Hierarchy::nucleus_cells_slice`]), in the order a stack walk from
//! the node visits it. Per node, a table holds λ, the parent, where the
//! run starts, the delta and run lengths and a range of one flat array
//! of children (ascending). Beside it come the owning node of every cell
//! and the number of nuclei per level ([`Hierarchy::level_profile`]),
//! both filled at construction, and λ, one buffer shared with the
//! [`crate::peel::Peeling`] it came from.

use std::sync::Arc;

use serde::{Deserialize, Serialize, Value};

/// Sentinel for "no node" (the root's parent).
pub const NO_NODE: u32 = u32::MAX;

/// One nucleus of a [`Hierarchy`]: a view of its row of the node table
/// ([`Hierarchy::node`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyNode<'a> {
    /// The k of this k-(r,s) nucleus (0 only for the root).
    pub lambda: u32,
    /// Parent node id; [`NO_NODE`] for the root.
    pub parent: u32,
    /// Child node ids (sorted ascending).
    pub children: &'a [u32],
    /// Delta cells: members with λ exactly equal to `lambda`, sorted.
    pub cells: &'a [u32],
    /// Total member count of the nucleus (delta + all descendants).
    pub subtree_cells: u64,
}

/// One row of the node table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Node {
    lambda: u32,
    parent: u32,
    /// Where the node's run starts in `cells`.
    start: u32,
    /// Length of its delta, the head of the run.
    delta: u32,
    /// Length of the run: the nucleus's member count.
    subtree: u32,
    /// Where its children start in `children`.
    first_child: u32,
    /// How many children it has.
    child_count: u32,
}

/// Canonical hierarchy of all k-(r,s) nuclei of a graph (see the module
/// docs for its layout).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hierarchy {
    /// r of the decomposition.
    pub r: u32,
    /// s of the decomposition.
    pub s: u32,
    /// The node table, by canonical id.
    nodes: Vec<Node>,
    /// Every node's children, node after node, each ascending.
    children: Vec<u32>,
    /// Every cell once, in pre-order.
    cells: Vec<u32>,
    /// Owning node per cell (the node whose delta contains it).
    cell_node: Vec<u32>,
    /// λ per cell, shared with the peeling.
    lambda: Arc<[u32]>,
    max_lambda: u32,
    /// `profile[k]`: the number of k-(r,s) nuclei, for k = 0..=max λ.
    profile: Vec<usize>,
}

impl Hierarchy {
    /// Id of the root node (always 0).
    pub const ROOT: u32 = 0;

    /// All nodes, root first.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = HierarchyNode<'_>> + '_ {
        (0..self.nodes.len() as u32).map(move |id| self.node(id))
    }

    /// A node by id.
    pub fn node(&self, id: u32) -> HierarchyNode<'_> {
        let node = &self.nodes[id as usize];
        let (run, kids) = (node.start as usize, node.first_child as usize);
        HierarchyNode {
            lambda: node.lambda,
            parent: node.parent,
            children: &self.children[kids..kids + node.child_count as usize],
            cells: &self.cells[run..run + node.delta as usize],
            subtree_cells: u64::from(node.subtree),
        }
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

    /// All member cells of the nucleus rooted at `id` (its subtree), as
    /// an owned copy of [`Hierarchy::nucleus_cells_slice`].
    pub fn nucleus_cells(&self, id: u32) -> Vec<u32> {
        self.nucleus_cells_slice(id).to_vec()
    }

    /// All member cells of the nucleus rooted at `id`: its run, read in
    /// place. The delta comes first, then the children's runs in
    /// descending child id.
    pub fn nucleus_cells_slice(&self, id: u32) -> &[u32] {
        let node = &self.nodes[id as usize];
        let start = node.start as usize;
        &self.cells[start..start + node.subtree as usize]
    }

    /// Ids of all k-(r,s) nuclei for a fixed `k`, ascending: nodes with
    /// λ ≥ k whose parent has λ < k. (A node with λ = 5 over a λ = 2
    /// parent *is* the 3-, 4- and 5-nucleus of its cells — the sets
    /// coincide.) One scan of the node table; empty for
    /// `k > max_lambda`.
    pub fn nuclei_at(&self, k: u32) -> Vec<u32> {
        assert!(k >= 1, "k = 0 is the whole graph (the root)");
        (1..self.nodes.len() as u32)
            .filter(|&id| {
                let node = &self.nodes[id as usize];
                node.lambda >= k && self.nodes[node.parent as usize].lambda < k
            })
            .collect()
    }

    /// Leaf nuclei (no children): the locally densest subgraphs.
    pub fn leaves(&self) -> Vec<u32> {
        (1..self.nodes.len() as u32)
            .filter(|&id| self.nodes[id as usize].child_count == 0)
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
    /// nuclei (index 0 is unused; the root is not a nucleus). Counted at
    /// construction, so this is a read of max λ + 1 words.
    pub fn level_profile(&self) -> &[usize] {
        &self.profile
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

    /// Depth of the hierarchy (root = 0). A parent's id is below its
    /// children's, so one forward pass sees every parent first.
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.nodes.len()];
        for id in 1..self.nodes.len() {
            depth[id] = depth[self.nodes[id].parent as usize] + 1;
        }
        depth.into_iter().max().unwrap_or(0)
    }

    /// Structural invariant check; returns a description of the first
    /// violation, never panics. Every delta cell must have its node's λ,
    /// and the hierarchy must be exactly what the canonicalizer builds
    /// from its own nodes' λ, parents and deltas, bounds-checked: a tree
    /// in canonical order, runs in pre-order holding every cell once,
    /// and owners, children, counts and the level profile that agree
    /// with them. Cheap enough to run in tests on every result.
    pub fn validate(&self) -> Result<(), String> {
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for (id, node) in self.nodes.iter().enumerate() {
            let delta = self
                .cells
                .get(node.start as usize..)
                .and_then(|run| run.get(..node.delta as usize))
                .ok_or_else(|| format!("node {id}: delta out of range"))?;
            let other_lambda = |c: &&u32| self.lambda.get(**c as usize) != Some(&node.lambda);
            if let Some(c) = delta.iter().find(other_lambda) {
                return Err(format!("node {id}: cell {c} of another λ"));
            }
            nodes.push((node.lambda, node.parent, delta));
        }
        if self.max_lambda != self.lambda.iter().copied().max().unwrap_or(0) {
            return Err(format!("max λ {} is not the largest λ", self.max_lambda));
        }
        let lambda = Arc::clone(&self.lambda);
        if Self::rebuild(self.r, self.s, lambda, self.max_lambda, &nodes)? != *self {
            return Err("not the canonical layout of its own nodes".into());
        }
        Ok(())
    }

    /// The hierarchy of nodes given in canonical id order as (λ, parent,
    /// delta), checked for everything the canonicalizer assumes: node 0
    /// is a λ = 0 root, every other node names an earlier parent of
    /// smaller λ, has a λ of at most `max_lambda` and a delta of cells
    /// in range, and no cell is in two of these deltas. The root's
    /// delta is not read: it is every cell no other node holds.
    fn rebuild<C: AsRef<[u32]>>(
        r: u32,
        s: u32,
        lambda: Arc<[u32]>,
        max_lambda: u32,
        nodes: &[(u32, u32, C)],
    ) -> Result<Hierarchy, String> {
        // A cell of λ = k has k containers, each with a co-cell of its
        // own, so k is below the cell count; this bounds the per-level
        // arrays by the input's size.
        if max_lambda as usize > lambda.len() {
            return Err(format!("max λ {max_lambda} above the cell count"));
        }
        if !matches!(nodes.first(), Some((0, NO_NODE, _))) {
            return Err("node 0 is not a λ=0 root".into());
        }
        let mut raw = RawHierarchy::new(lambda.len());
        for (id, (l, parent, cells)) in nodes.iter().enumerate().skip(1) {
            // A parent before its child, with a smaller λ: no cycles.
            let parent_node = nodes
                .get(*parent as usize)
                .filter(|_| (*parent as usize) < id);
            if parent_node.is_none_or(|p| p.0 >= *l) || *l > max_lambda {
                return Err(format!("node {id}: bad parent {parent} or λ {l}"));
            }
            if cells.as_ref().is_empty() {
                return Err(format!("node {id}: empty delta"));
            }
            let raw_id = raw.push(*l, parent.checked_sub(1).unwrap_or(NO_NODE));
            for &c in cells.as_ref() {
                match raw.owner.get_mut(c as usize) {
                    Some(owner) if *owner == NO_NODE => *owner = raw_id,
                    Some(_) => return Err(format!("cell {c} in two nodes")),
                    None => return Err(format!("node {id}: cell {c} out of range")),
                }
            }
        }
        Ok(raw.into_hierarchy(r, s, lambda, max_lambda))
    }
}

/// Nuclei per level: a node is the k-(r,s) nucleus of its cells for
/// every k in (its parent's λ, its λ].
fn level_counts(nodes: &[Node], max_lambda: u32) -> Vec<usize> {
    let mut profile = vec![0usize; max_lambda as usize + 1];
    for node in &nodes[1..] {
        for k in nodes[node.parent as usize].lambda + 1..=node.lambda {
            profile[k as usize] += 1;
        }
    }
    profile
}

fn ids(xs: &[u32]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::U64(u64::from(x))).collect())
}

// The JSON shape — field names and order — is the export format that
// `decompose --json` writes and `integration_io` pins: per node its λ,
// parent, children, delta cells and member count, then the owners, λ and
// max λ.
impl Serialize for HierarchyNode<'_> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("lambda".to_string(), self.lambda.to_value()),
            ("parent".to_string(), self.parent.to_value()),
            ("children".to_string(), ids(self.children)),
            ("cells".to_string(), ids(self.cells)),
            ("subtree_cells".to_string(), self.subtree_cells.to_value()),
        ])
    }
}

impl Serialize for Hierarchy {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("r".to_string(), self.r.to_value()),
            ("s".to_string(), self.s.to_value()),
            (
                "nodes".to_string(),
                Value::Array(self.nodes().map(|node| node.to_value()).collect()),
            ),
            ("cell_node".to_string(), ids(&self.cell_node)),
            ("lambda".to_string(), ids(&self.lambda)),
            ("max_lambda".to_string(), self.max_lambda.to_value()),
        ])
    }
}

impl Deserialize for Hierarchy {
    /// Accepts exactly what [`Serialize`] writes, and returns an error
    /// for anything else. The nodes' λ, parents and deltas are rebuilt,
    /// bounds-checked, through the canonicalizer; the result must pass
    /// [`Hierarchy::validate`] and serialize back to the very same value,
    /// which checks every field the rebuild does not read.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let bad = |what: String| serde::Error(format!("invalid hierarchy: {what}"));
        let Value::Array(items) = v.field("nodes")? else {
            return Err(bad("`nodes` is not an array".into()));
        };
        let mut nodes: Vec<(u32, u32, Vec<u32>)> = Vec::with_capacity(items.len());
        for node in items {
            nodes.push((
                Deserialize::from_value(node.field("lambda")?)?,
                Deserialize::from_value(node.field("parent")?)?,
                Deserialize::from_value(node.field("cells")?)?,
            ));
        }
        let lambda: Vec<u32> = Deserialize::from_value(v.field("lambda")?)?;
        let h = Self::rebuild(
            Deserialize::from_value(v.field("r")?)?,
            Deserialize::from_value(v.field("s")?)?,
            lambda.into(),
            Deserialize::from_value(v.field("max_lambda")?)?,
            &nodes,
        )
        .map_err(bad)?;
        h.validate().map_err(bad)?;
        if h.to_value() != *v {
            return Err(bad("not the canonical form of its own nodes".into()));
        }
        Ok(h)
    }
}

/// Pre-canonical hierarchy: what algorithms hand over. A node table in
/// any order with any id scheme, and the owning node of every cell.
/// `parent == NO_NODE` means "child of the root", and a cell owned by
/// `NO_NODE` belongs to the root, so its λ must be 0. Every node must
/// own at least one cell, and a child's λ must be above its parent's.
#[derive(Debug)]
pub struct RawHierarchy {
    /// The nodes, by raw id.
    pub nodes: Vec<RawNode>,
    /// Raw id of the node whose delta holds each cell, [`NO_NODE`] for
    /// the root.
    pub owner: Vec<u32>,
}

/// One pre-canonical node.
#[derive(Clone, Copy, Debug)]
pub struct RawNode {
    /// λ of the nucleus.
    pub lambda: u32,
    /// Raw id of the parent node, or [`NO_NODE`] for "under the root".
    pub parent: u32,
}

impl RawHierarchy {
    /// No nodes yet: every one of `cell_count` cells is the root's.
    pub fn new(cell_count: usize) -> Self {
        RawHierarchy {
            nodes: Vec::new(),
            owner: vec![NO_NODE; cell_count],
        }
    }

    /// Adds a node, returning its raw id.
    pub fn push(&mut self, lambda: u32, parent: u32) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(RawNode { lambda, parent });
        id
    }

    /// Canonicalizes into a [`Hierarchy`], in O(cells + nodes + max λ)
    /// with no sort: one ascending pass over the owners counts each
    /// node's cells and lists the nodes by smallest cell, a counting
    /// sort by λ gives the canonical ids, two passes over the node
    /// table lay out the runs and children, and one ascending pass over
    /// the cells places each in its owner's delta, so every delta comes
    /// out sorted. The owner array becomes the hierarchy's `cell_node`.
    ///
    /// `lambda` is the per-cell λ array from the peeling; the hierarchy
    /// keeps it, shared rather than copied.
    pub fn into_hierarchy(self, r: u32, s: u32, lambda: Arc<[u32]>, max_lambda: u32) -> Hierarchy {
        let RawHierarchy {
            nodes: raw,
            owner: mut cell_node,
        } = self;
        debug_assert_eq!(cell_node.len(), lambda.len(), "one owner per cell");
        // 1. Each raw node's delta length, and the raw nodes in order of
        //    their smallest cell.
        let mut delta = vec![0u32; raw.len()];
        let mut by_first_cell = Vec::with_capacity(raw.len());
        for &o in cell_node.iter().filter(|&&o| o != NO_NODE) {
            if delta[o as usize] == 0 {
                by_first_cell.push(o);
            }
            delta[o as usize] += 1;
        }
        let root_delta = cell_node.len() as u32 - delta.iter().sum::<u32>();
        debug_assert_eq!(by_first_cell.len(), raw.len(), "a raw node owns no cell");
        // 2. Canonical ids, from 1 in (λ, smallest cell) order: a stable
        //    counting sort of that list by λ.
        let mut next = vec![0u32; max_lambda as usize + 1];
        for &o in &by_first_cell {
            next[raw[o as usize].lambda as usize] += 1;
        }
        let mut first_id = 1;
        for slot in &mut next {
            (*slot, first_id) = (first_id, first_id + *slot);
        }
        let mut canon = vec![0u32; raw.len()];
        for &o in &by_first_cell {
            let slot = &mut next[raw[o as usize].lambda as usize];
            canon[o as usize] = *slot;
            *slot += 1;
        }
        // 3. The node table.
        let mut nodes = vec![Node::default(); raw.len() + 1];
        nodes[0] = Node {
            parent: NO_NODE,
            delta: root_delta,
            ..Node::default()
        };
        for (o, node) in raw.iter().enumerate() {
            let parent = if node.parent == NO_NODE {
                Hierarchy::ROOT
            } else {
                debug_assert!(raw[node.parent as usize].lambda < node.lambda);
                canon[node.parent as usize]
            };
            debug_assert!(node.lambda <= max_lambda);
            nodes[canon[o] as usize] = Node {
                lambda: node.lambda,
                parent,
                delta: delta[o],
                ..Node::default()
            };
        }
        // 4. Runs. A child's id is above its parent's, so a descending
        //    pass sums run lengths bottom-up and gives each child the
        //    offset of its run in its parent's (after the delta and the
        //    runs of higher-id siblings), and an ascending pass turns
        //    offsets into starts and lists each node's children.
        for id in (1..nodes.len()).rev() {
            let node = nodes[id];
            let subtree = node.subtree + node.delta;
            let parent = &mut nodes[node.parent as usize];
            let offset = parent.delta + parent.subtree;
            parent.subtree += subtree;
            parent.child_count += 1;
            nodes[id].subtree = subtree;
            nodes[id].start = offset;
        }
        nodes[0].subtree += root_delta;
        let mut children = vec![0u32; nodes.len() - 1];
        let mut listed = 0u32;
        for id in 0..nodes.len() {
            if id > 0 {
                let p = nodes[id].parent as usize;
                let parent = &mut nodes[p];
                let (start, slot) = (parent.start, parent.first_child + parent.child_count);
                parent.child_count += 1;
                children[slot as usize] = id as u32;
                nodes[id].start += start;
            }
            let node = &mut nodes[id];
            (node.first_child, listed) = (listed, listed + node.child_count);
            node.child_count = 0;
        }
        // 5. Cells, each into the next slot of its owner's delta. The
        //    root's delta leads the array and its cursor is a local: on
        //    sparse inputs nearly every cell is the root's.
        let mut fill: Vec<u32> = nodes.iter().map(|node| node.start).collect();
        let mut cells = vec![0u32; cell_node.len()];
        let mut root_fill = 0;
        for (c, owner) in cell_node.iter_mut().enumerate() {
            let slot = if *owner == NO_NODE {
                *owner = Hierarchy::ROOT;
                root_fill += 1;
                root_fill - 1
            } else {
                *owner = canon[*owner as usize];
                let next = &mut fill[*owner as usize];
                *next += 1;
                *next - 1
            };
            cells[slot as usize] = c as u32;
        }
        let profile = level_counts(&nodes, max_lambda);
        Hierarchy {
            r,
            s,
            nodes,
            children,
            cells,
            cell_node,
            lambda,
            max_lambda,
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a raw hierarchy from `(λ, parent raw id, delta)` triples.
    fn raw_of(cells: usize, nodes: &[(u32, u32, &[u32])]) -> RawHierarchy {
        let mut raw = RawHierarchy::new(cells);
        for &(lambda, parent, delta) in nodes {
            let id = raw.push(lambda, parent);
            for &c in delta {
                raw.owner[c as usize] = id;
            }
        }
        raw
    }

    /// Hand-built: cells 0..6; node A λ=1 {0,1}, node B λ=3 {2,3} under A,
    /// node C λ=2 {4,5} under A; cell 6 has λ=0 → root.
    fn sample_raw() -> (RawHierarchy, Arc<[u32]>) {
        let raw = raw_of(
            7,
            &[(1, NO_NODE, &[1, 0]), (3, 0, &[3, 2]), (2, 0, &[5, 4])],
        );
        (raw, vec![1, 1, 3, 3, 2, 2, 0].into())
    }

    /// A deeper, bushier tree than `sample_raw`, over 14 cells: two
    /// branches under a λ=1 node, one of them nested twice, plus a
    /// second top-level nucleus and λ=0 strays.
    fn fourteen_cell_tree() -> Hierarchy {
        let raw = raw_of(
            14,
            &[
                (1, NO_NODE, &[0, 1, 2]),
                (2, 0, &[3, 4]),
                (4, 1, &[5]),
                (3, 1, &[6, 7]),
                (2, 0, &[8]),
                (1, NO_NODE, &[9]),
                (5, 5, &[10, 11]),
            ],
        );
        let lambda = vec![1, 1, 1, 2, 2, 4, 3, 3, 2, 1, 5, 5, 0, 0];
        raw.into_hierarchy(2, 3, lambda.into(), 5)
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
        assert_eq!(h.node(1).cells, [0, 1]);
        assert_eq!(h.node(2).parent, 1);
        assert_eq!(h.node(3).parent, 1);
        assert_eq!(h.node(0).cells, [6]);
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
        assert_eq!(h.level_profile(), [0, 1, 2, 1]);
        for k in 1..=3 {
            assert_eq!(h.level_profile()[k as usize], h.nuclei_at(k).len());
        }
    }

    #[test]
    fn equality_is_canonical() {
        let (raw1, lambda1) = sample_raw();
        let h1 = raw1.into_hierarchy(1, 2, lambda1, 3);
        // same content, different raw ordering / parent wiring order
        let raw2 = raw_of(
            7,
            &[(1, NO_NODE, &[0, 1]), (2, 0, &[4, 5]), (3, 0, &[2, 3])],
        );
        let h2 = raw2.into_hierarchy(1, 2, vec![1, 1, 3, 3, 2, 2, 0].into(), 3);
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
        for field in ["\"r\"", "\"s\"", "\"nodes\"", "\"cell_node\"", "\"lambda\""] {
            assert!(json.contains(field), "{json}");
        }
        assert!(!json.contains("index"), "{json}");
    }

    /// The 14-cell tree's runs (each a stack walk from its node: delta,
    /// then children in descending id), nuclei per level and JSON, byte
    /// for byte.
    #[test]
    fn fourteen_cell_tree_keeps_its_runs_and_json() {
        let h = fourteen_cell_tree();
        h.validate().expect("valid");
        let runs: [&[u32]; 8] = [
            &[12, 13, 9, 10, 11, 0, 1, 2, 8, 3, 4, 5, 6, 7],
            &[0, 1, 2, 8, 3, 4, 5, 6, 7],
            &[9, 10, 11],
            &[3, 4, 5, 6, 7],
            &[8],
            &[6, 7],
            &[5],
            &[10, 11],
        ];
        assert_eq!(h.len(), runs.len());
        for (id, run) in runs.iter().enumerate() {
            assert_eq!(h.nucleus_cells_slice(id as u32), *run, "node {id}");
            assert_eq!(h.nucleus_cells(id as u32), *run, "node {id}");
        }
        let levels: [&[u32]; 5] = [&[1, 2], &[3, 4, 7], &[5, 6, 7], &[6, 7], &[7]];
        for (k, want) in (1..).zip(levels) {
            assert_eq!(h.nuclei_at(k), want, "k={k}");
        }
        assert!(h.nuclei_at(h.max_lambda() + 7).is_empty());
        assert_eq!(h.level_profile(), [0, 2, 3, 3, 2, 1]);
        assert_eq!(
            serde_json::to_string(&h).unwrap(),
            concat!(
                r#"{"r":2,"s":3,"nodes":["#,
                r#"{"lambda":0,"parent":4294967295,"children":[1,2],"cells":[12,13],"subtree_cells":14},"#,
                r#"{"lambda":1,"parent":0,"children":[3,4],"cells":[0,1,2],"subtree_cells":9},"#,
                r#"{"lambda":1,"parent":0,"children":[7],"cells":[9],"subtree_cells":3},"#,
                r#"{"lambda":2,"parent":1,"children":[5,6],"cells":[3,4],"subtree_cells":5},"#,
                r#"{"lambda":2,"parent":1,"children":[],"cells":[8],"subtree_cells":1},"#,
                r#"{"lambda":3,"parent":3,"children":[],"cells":[6,7],"subtree_cells":2},"#,
                r#"{"lambda":4,"parent":3,"children":[],"cells":[5],"subtree_cells":1},"#,
                r#"{"lambda":5,"parent":2,"children":[],"cells":[10,11],"subtree_cells":2}],"#,
                r#""cell_node":[1,1,1,3,3,6,5,5,4,2,7,7,0,0],"#,
                r#""lambda":[1,1,1,2,2,4,3,3,2,1,5,5,0,0],"max_lambda":5}"#
            )
        );
    }

    #[test]
    fn degenerate_hierarchies() {
        // Root-only: every cell has λ = 0.
        let h = RawHierarchy::new(3).into_hierarchy(1, 2, vec![0, 0, 0].into(), 0);
        h.validate().expect("valid");
        assert_eq!(h.nucleus_cells(Hierarchy::ROOT), vec![0, 1, 2]);
        assert!(h.nuclei_at(1).is_empty());
        assert_eq!(h.level_profile(), [0]);
        assert_eq!(h.depth(), 0);
        // Zero cells entirely.
        let h = RawHierarchy::new(0).into_hierarchy(1, 2, Vec::new().into(), 0);
        h.validate().expect("valid");
        assert!(h.nucleus_cells_slice(Hierarchy::ROOT).is_empty());
        assert_eq!(h.level_profile(), [0]);
    }
}
