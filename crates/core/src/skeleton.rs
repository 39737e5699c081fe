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
    /// `comp` becomes the owner array in place: each cell's sub-nucleus
    /// maps through its group's representative to the group's node.
    pub fn into_raw(self) -> RawHierarchy {
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
        // One raw node per representative; then `rep` maps every
        // sub-nucleus straight to its group's node.
        let mut raw = RawHierarchy {
            nodes: Vec::new(),
            owner: self.comp,
        };
        let mut node_of = vec![NO_NODE; n];
        for i in 0..n {
            if rep[i] == i as u32 {
                node_of[i] = raw.push(self.lambda[i], NO_NODE);
            }
        }
        for r in &mut rep {
            *r = node_of[*r as usize];
        }
        // Parents: a representative's skeleton parent (if any) has a
        // strictly smaller λ; it maps to its own group's node.
        for (i, &node) in node_of.iter().enumerate() {
            let Some(p) = self.forest.parent(i as u32).filter(|_| node != NO_NODE) else {
                continue;
            };
            debug_assert!(
                self.lambda[p as usize] < self.lambda[i],
                "skeleton parent must have smaller λ after contraction"
            );
            raw.nodes[node as usize].parent = rep[p as usize];
        }
        for c in raw.owner.iter_mut().filter(|c| **c != NO_NODE) {
            *c = rep[*c as usize];
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
        assert_eq!(raw.owner, [0, 0, NO_NODE]);
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
        assert_eq!(raw.owner, [0; 4]);
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
        assert_eq!(raw.nodes.len(), 2);
        let four = raw.nodes.iter().position(|n| n.lambda == 4).unwrap() as u32;
        let one = raw.nodes.iter().position(|n| n.lambda == 1).unwrap() as u32;
        assert_eq!(raw.owner, [four, four, four, four, one, one]);
        assert_eq!(raw.nodes[four as usize].parent, one);
    }
}
