//! Root-augmented disjoint-set forest (Algorithm 7 of the paper).
//!
//! The hierarchy-skeleton of a nucleus decomposition is a tree of
//! sub-nuclei. While it is being built bottom-up we repeatedly need the
//! *greatest ancestor* ("the representative of the large structure a
//! sub-nucleus has been absorbed into"). Rewriting tree `parent` links to
//! compress paths would destroy the skeleton itself, so each node carries
//! a second pointer:
//!
//! * `parent` — permanent skeleton edge, written once per node;
//! * `root` — union-find overlay pointing (possibly transitively) at the
//!   node's current greatest ancestor; `find_r` compresses **only** this
//!   pointer.

const NONE: u32 = u32::MAX;

/// Growable forest of nodes with separate `parent` (permanent tree link)
/// and `root` (path-compressed union-find link) pointers.
#[derive(Clone, Debug, Default)]
pub struct RootedForest {
    parent: Vec<u32>,
    root: Vec<u32>,
    rank: Vec<u32>,
}

impl RootedForest {
    /// Empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forest with capacity for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        RootedForest {
            parent: Vec::with_capacity(n),
            root: Vec::with_capacity(n),
            rank: Vec::with_capacity(n),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the forest has no nodes.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Adds an isolated node (no parent, no root, rank 0); returns its id.
    pub fn push(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(NONE);
        self.root.push(NONE);
        self.rank.push(0);
        id
    }

    /// Permanent skeleton parent of `x`, if assigned.
    #[inline]
    pub fn parent(&self, x: u32) -> Option<u32> {
        let p = self.parent[x as usize];
        (p != NONE).then_some(p)
    }

    /// Rank of `x` (union-by-rank bookkeeping; roughly log of tree size).
    #[inline]
    pub fn rank(&self, x: u32) -> u32 {
        self.rank[x as usize]
    }

    /// True if `x` currently has no greatest ancestor other than itself.
    #[inline]
    pub fn is_top(&self, x: u32) -> bool {
        self.root[x as usize] == NONE
    }

    /// `Find-r`: the greatest ancestor of `x`, compressing `root`
    /// pointers along the way. `parent` pointers are never touched.
    pub fn find_r(&mut self, x: u32) -> u32 {
        let mut top = x;
        while self.root[top as usize] != NONE {
            top = self.root[top as usize];
        }
        let mut c = x;
        while c != top && self.root[c as usize] != top {
            let next = self.root[c as usize];
            self.root[c as usize] = top;
            c = next;
        }
        top
    }

    /// `Link-r`: links two *tops* by rank. The loser's `parent` **and**
    /// `root` are set to the winner. Returns the winner.
    ///
    /// # Panics
    /// In debug builds, panics if either argument is not a top.
    pub fn link_r(&mut self, x: u32, y: u32) -> u32 {
        debug_assert!(self.is_top(x) && self.is_top(y), "link_r expects tops");
        debug_assert_ne!(x, y, "link_r of a node with itself");
        let (winner, loser) = if self.rank[x as usize] > self.rank[y as usize] {
            (x, y)
        } else {
            (y, x)
        };
        self.parent[loser as usize] = winner;
        self.root[loser as usize] = winner;
        if self.rank[x as usize] == self.rank[y as usize] {
            self.rank[winner as usize] += 1;
        }
        winner
    }

    /// `Union-r`: merges the structures containing `x` and `y`.
    /// Returns the surviving top (or the common top if already merged).
    pub fn union_r(&mut self, x: u32, y: u32) -> u32 {
        let rx = self.find_r(x);
        let ry = self.find_r(y);
        if rx == ry {
            return rx;
        }
        self.link_r(rx, ry)
    }

    /// Cross-level attachment (line 21 of Alg. 6 / line 10 of Alg. 9):
    /// makes `new_parent` the skeleton parent *and* union-find root of
    /// the top `x`. Unlike [`link_r`](Self::link_r) the direction is
    /// dictated by λ values, not rank.
    ///
    /// # Panics
    /// In debug builds, panics if `x` is not a top.
    pub fn attach(&mut self, x: u32, new_parent: u32) {
        debug_assert!(self.is_top(x), "attach expects a top");
        debug_assert_ne!(x, new_parent);
        self.parent[x as usize] = new_parent;
        self.root[x as usize] = new_parent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_nodes_are_their_own_top() {
        let mut f = RootedForest::new();
        let a = f.push();
        let b = f.push();
        assert_eq!(f.find_r(a), a);
        assert_eq!(f.find_r(b), b);
        assert!(f.parent(a).is_none());
    }

    #[test]
    fn union_links_parent_and_root() {
        let mut f = RootedForest::new();
        let a = f.push();
        let b = f.push();
        let w = f.union_r(a, b);
        let l = if w == a { b } else { a };
        assert_eq!(f.parent(l), Some(w));
        assert_eq!(f.find_r(l), w);
        assert_eq!(f.find_r(w), w);
        // idempotent
        assert_eq!(f.union_r(a, b), w);
    }

    #[test]
    fn attach_overrides_rank_direction() {
        let mut f = RootedForest::new();
        // Build a tall structure so its top has high rank.
        let nodes: Vec<u32> = (0..8).map(|_| f.push()).collect();
        let mut top = nodes[0];
        for &x in &nodes[1..] {
            top = f.union_r(top, x);
        }
        assert!(f.rank(top) > 0);
        let low = f.push(); // rank 0, but λ-wise it must become the parent
        f.attach(top, low);
        for &x in &nodes {
            assert_eq!(f.find_r(x), low);
        }
        assert_eq!(f.parent(top), Some(low));
    }

    #[test]
    fn parent_links_form_skeleton_not_compressed() {
        let mut f = RootedForest::new();
        let a = f.push();
        let b = f.push();
        let c = f.push();
        let w1 = f.union_r(a, b);
        let w2 = f.union_r(w1, c);
        // After compression everyone finds w2, but parent pointers still
        // spell out the merge history (each non-top has exactly one).
        assert_eq!(f.find_r(a), w2);
        assert_eq!(f.find_r(b), w2);
        let mut with_parent = 0;
        for x in [a, b, c] {
            if f.parent(x).is_some() {
                with_parent += 1;
            }
        }
        assert_eq!(with_parent, 2); // two losers, one overall top
        assert!(f.parent(w2).is_none());
    }

    #[test]
    fn find_compresses_long_chains() {
        let mut f = RootedForest::new();
        let nodes: Vec<u32> = (0..100).map(|_| f.push()).collect();
        // Chain attachments: each top attached under the next node.
        for w in nodes.windows(2) {
            f.attach(w[0], w[1]);
        }
        let top = *nodes.last().unwrap();
        assert_eq!(f.find_r(nodes[0]), top);
        // After one find, the chain is flattened.
        assert_eq!(f.root[nodes[0] as usize], top);
        assert_eq!(f.root[nodes[50] as usize], top);
        // parent chain intact
        assert_eq!(f.parent(nodes[0]), Some(nodes[1]));
    }
}
