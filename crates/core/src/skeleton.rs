//! The hierarchy-skeleton: sub-nuclei plus the root-augmented forest.
//!
//! Both DFT (Alg. 5/6) and FND (Alg. 8/9) build this structure — a
//! growable set of *sub-nucleus* nodes (`T_{r,s}` for DFT, possibly
//! non-maximal `T*_{r,s}` for FND), each with a λ value, wired together
//! by a [`RootedForest`]: `parent` links spell the skeleton tree, `root`
//! links give fast greatest-ancestor lookups. [`Skeleton::into_raw`]
//! contracts equal-λ chains into one node per k-(r,s) nucleus.

use nucleus_dsf::RootedForest;

use crate::hierarchy::{RawHierarchy, NO_NODE};

/// Growable skeleton: one entry per sub-nucleus, plus the per-cell
/// `comp` assignment.
#[derive(Clone, Debug)]
pub struct Skeleton {
    /// λ of each sub-nucleus.
    pub lambda: Vec<u32>,
    /// parent/root/rank pointers (see [`RootedForest`]).
    pub forest: RootedForest,
    /// Sub-nucleus id of every cell ([`NO_NODE`] = unassigned / λ = 0).
    pub comp: Vec<u32>,
}

impl Skeleton {
    /// Empty skeleton over `cell_count` cells.
    pub fn new(cell_count: usize) -> Self {
        Skeleton {
            lambda: Vec::new(),
            forest: RootedForest::new(),
            comp: vec![NO_NODE; cell_count],
        }
    }

    /// Number of sub-nuclei created so far (|T| for DFT, |T*| for FND).
    pub fn len(&self) -> usize {
        self.lambda.len()
    }

    /// True when no sub-nucleus exists.
    pub fn is_empty(&self) -> bool {
        self.lambda.is_empty()
    }

    /// Creates a sub-nucleus with the given λ; returns its id.
    pub fn new_subnucleus(&mut self, lambda: u32) -> u32 {
        let id = self.forest.push();
        debug_assert_eq!(id as usize, self.lambda.len());
        self.lambda.push(lambda);
        id
    }

    /// Contracts equal-λ parent chains and emits a [`RawHierarchy`]:
    /// one raw node per k-(r,s) nucleus (= per equal-λ connected group of
    /// sub-nuclei), parented at the first strictly-smaller-λ ancestor.
    pub fn into_raw(&mut self) -> RawHierarchy {
        let n = self.lambda.len();
        // rep[i]: the top of i's equal-λ parent chain, path-compressed.
        let mut rep = vec![NO_NODE; n];
        let mut path: Vec<u32> = Vec::new();
        for i in 0..n as u32 {
            if rep[i as usize] != NO_NODE {
                continue;
            }
            path.clear();
            let mut cur = i;
            let top = loop {
                if rep[cur as usize] != NO_NODE {
                    break rep[cur as usize];
                }
                match self.forest.parent(cur) {
                    Some(p) if self.lambda[p as usize] == self.lambda[cur as usize] => {
                        path.push(cur);
                        cur = p;
                    }
                    _ => break cur,
                }
            };
            for &x in &path {
                rep[x as usize] = top;
            }
            rep[cur as usize] = top;
        }
        // Raw node per representative, its cell list sized to the cells
        // it gets, so each list is allocated once.
        let mut size = vec![0u32; n];
        for &c in self.comp.iter().filter(|&&c| c != NO_NODE) {
            size[rep[c as usize] as usize] += 1;
        }
        let mut raw = RawHierarchy::default();
        let mut raw_id = vec![NO_NODE; n];
        for i in 0..n {
            if rep[i] == i as u32 {
                let cells = Vec::with_capacity(size[i] as usize);
                raw_id[i] = raw.push(self.lambda[i], NO_NODE, cells);
            }
        }
        // Parents: a representative's skeleton parent (if any) has a
        // strictly smaller λ; map it through its own representative.
        for i in 0..n {
            if rep[i] != i as u32 {
                continue;
            }
            if let Some(p) = self.forest.parent(i as u32) {
                debug_assert!(
                    self.lambda[p as usize] < self.lambda[i],
                    "skeleton parent must have smaller λ after contraction"
                );
                let p_rep = rep[p as usize];
                raw.nodes[raw_id[i] as usize].parent = raw_id[p_rep as usize];
            }
        }
        // Cells.
        for (cell, &c) in self.comp.iter().enumerate() {
            if c != NO_NODE {
                let owner = raw_id[rep[c as usize] as usize];
                raw.nodes[owner as usize].cells.push(cell as u32);
            }
        }
        raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_subnucleus_becomes_one_node() {
        let mut sk = Skeleton::new(3);
        let a = sk.new_subnucleus(2);
        sk.comp = vec![a, a, NO_NODE];
        let raw = sk.into_raw();
        assert_eq!(raw.nodes.len(), 1);
        assert_eq!(raw.nodes[0].lambda, 2);
        assert_eq!(raw.nodes[0].cells, vec![0, 1]);
        assert_eq!(raw.nodes[0].parent, NO_NODE);
    }

    #[test]
    fn equal_lambda_union_contracts() {
        let mut sk = Skeleton::new(4);
        let a = sk.new_subnucleus(3);
        let b = sk.new_subnucleus(3);
        sk.forest.union_r(a, b);
        sk.comp = vec![a, a, b, b];
        let raw = sk.into_raw();
        // one raw node per equal-λ group: a and b contracted together
        assert_eq!(raw.nodes.len(), 1);
        assert_eq!(raw.nodes[0].cells.len(), 4);
        assert_eq!(raw.nodes[0].lambda, 3);
    }

    #[test]
    fn cross_level_attach_becomes_parent() {
        let mut sk = Skeleton::new(4);
        let hi = sk.new_subnucleus(5); // deeper nucleus
        let lo = sk.new_subnucleus(2); // enclosing nucleus
        sk.forest.attach(hi, lo);
        sk.comp = vec![hi, hi, lo, lo];
        let raw = sk.into_raw();
        assert_eq!(raw.nodes.len(), 2);
        let hi_node = raw.nodes.iter().position(|n| n.lambda == 5).unwrap();
        let lo_node = raw.nodes.iter().position(|n| n.lambda == 2).unwrap();
        assert_eq!(raw.nodes[hi_node].parent, lo_node as u32);
        assert_eq!(raw.nodes[lo_node].parent, NO_NODE);
    }

    #[test]
    fn mixed_chain_contracts_through_unions() {
        // two λ=4 groups merged, attached under a λ=1 group
        let mut sk = Skeleton::new(6);
        let a = sk.new_subnucleus(4);
        let b = sk.new_subnucleus(4);
        let c = sk.new_subnucleus(1);
        let top = sk.forest.union_r(a, b);
        sk.forest.attach(top, c);
        sk.comp = vec![a, a, b, b, c, c];
        let raw = sk.into_raw();
        let four: Vec<_> = raw
            .nodes
            .iter()
            .filter(|n| n.lambda == 4 && !n.cells.is_empty())
            .collect();
        assert_eq!(four.len(), 1);
        assert_eq!(four[0].cells.len(), 4);
        let one = raw.nodes.iter().position(|n| n.lambda == 1).unwrap() as u32;
        assert_eq!(four[0].parent, one);
    }
}
