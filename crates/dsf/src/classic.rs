//! Classic union-find (Algorithm 4 of the paper).

/// Union-find over `0..n` with union-by-rank and full path compression.
///
/// ```
/// use nucleus_dsf::DisjointSets;
/// let mut ds = DisjointSets::new(4);
/// ds.union(0, 1);
/// ds.union(2, 3);
/// assert_eq!(ds.find(0), ds.find(1));
/// assert_ne!(ds.find(1), ds.find(2));
/// ds.union(1, 3);
/// assert_eq!(ds.find(0), ds.find(2));
/// ```
#[derive(Clone, Debug)]
pub struct DisjointSets {
    /// Parent pointer; a node is a root iff `parent[x] == x`.
    parent: Vec<u32>,
    rank: Vec<u8>,
    sets: usize,
}

impl DisjointSets {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        DisjointSets {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            sets: n,
        }
    }

    /// Adds a fresh singleton, returning its id.
    pub fn push(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.rank.push(0);
        self.sets += 1;
        id
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when no element exists.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets.
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Representative of the set containing `x`, with path compression.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut r = x;
        while self.parent[r as usize] != r {
            r = self.parent[r as usize];
        }
        // Compress the path.
        let mut c = x;
        while self.parent[c as usize] != r {
            let next = self.parent[c as usize];
            self.parent[c as usize] = r;
            c = next;
        }
        r
    }

    /// Merges the sets of `x` and `y`. Returns the new representative,
    /// or `None` if they were already in the same set.
    pub fn union(&mut self, x: u32, y: u32) -> Option<u32> {
        let rx = self.find(x);
        let ry = self.find(y);
        if rx == ry {
            return None;
        }
        self.sets -= 1;
        let (hi, lo) = if self.rank[rx as usize] >= self.rank[ry as usize] {
            (rx, ry)
        } else {
            (ry, rx)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        Some(hi)
    }

    /// True if `x` and `y` are in the same set.
    pub fn same_set(&mut self, x: u32, y: u32) -> bool {
        self.find(x) == self.find(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_are_distinct() {
        let mut ds = DisjointSets::new(3);
        assert_eq!(ds.set_count(), 3);
        assert_ne!(ds.find(0), ds.find(1));
    }

    #[test]
    fn union_reduces_set_count() {
        let mut ds = DisjointSets::new(5);
        assert!(ds.union(0, 1).is_some());
        assert!(ds.union(1, 2).is_some());
        assert!(ds.union(0, 2).is_none()); // already merged
        assert_eq!(ds.set_count(), 3);
    }

    #[test]
    fn push_appends_singleton() {
        let mut ds = DisjointSets::new(1);
        let id = ds.push();
        assert_eq!(id, 1);
        assert_eq!(ds.set_count(), 2);
        ds.union(0, 1);
        assert_eq!(ds.set_count(), 1);
    }

    #[test]
    fn chain_compresses() {
        let mut ds = DisjointSets::new(64);
        for i in 0..63 {
            ds.union(i, i + 1);
        }
        let r = ds.find(0);
        for i in 0..64 {
            assert_eq!(ds.find(i), r);
        }
        assert_eq!(ds.set_count(), 1);
    }

    #[test]
    fn rank_bounds_tree_height() {
        // With union by rank, rank <= log2(n); just sanity check it stays small.
        let mut ds = DisjointSets::new(1024);
        for i in 0..1023 {
            ds.union(i, i + 1);
        }
        assert!(ds.rank.iter().all(|&r| r <= 10));
    }
}
