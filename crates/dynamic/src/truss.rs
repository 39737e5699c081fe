//! Exact incremental (2,3) maintenance: truss λ repair under single
//! edge updates, after Huang et al. (SIGMOD'14) adapted to this repo's
//! peeling convention (λ(e) = max k such that e survives peeling every
//! edge of support < k; a lone triangle has λ = 1 on all three edges).
//!
//! The two theorems this leans on, both provable from the maximality of
//! `{f : λ(f) ≥ k}` as an edge set with internal supports ≥ k:
//!
//! * one edge update changes any other edge's λ by at most 1;
//! * every edge that rises after inserting `e` is triangle-connected to
//!   `e` inside the *new* `{λ ≥ ℓ+1}` set, and the connecting path can
//!   be chosen so every traversed λ = ℓ edge is itself a riser — so a
//!   bounded traversal through current-level candidates finds them all
//!   (symmetrically for drops after a deletion, seeded by the destroyed
//!   triangles).
//!
//! λ is keyed by endpoint pair, not edge id, so it survives the id
//! renumbering that any snapshot/rebuild would imply.

use std::collections::{BTreeMap, HashMap};

use nucleus_core::peel::peel;
use nucleus_core::space::EdgeSpace;
use nucleus_graph::CsrGraph;

use crate::cores::RepairStats;
use crate::ops::pair_key;

/// Per-edge truss λ, keyed by normalized endpoint pair.
#[derive(Clone, Debug, Default)]
pub(crate) struct TrussState {
    lambda: HashMap<u64, u32>,
}

/// Sorted-list intersection: common neighbors of `a` and `b`.
pub(crate) fn common_neighbors(adj: &[Vec<u32>], a: u32, b: u32, out: &mut Vec<u32>) {
    out.clear();
    let (xs, ys) = (&adj[a as usize], &adj[b as usize]);
    let (mut i, mut j) = (0, 0);
    while i < xs.len() && j < ys.len() {
        match xs[i].cmp(&ys[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(xs[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

impl TrussState {
    /// Initial λ via a static (2,3) peel of `g` (which must match the
    /// dynamic adjacency).
    pub fn new(g: &CsrGraph) -> TrussState {
        let lambda = peel(&EdgeSpace::new(g)).lambda;
        let mut map = HashMap::with_capacity(g.m());
        for (e, u, v) in g.edges() {
            map.insert(pair_key(u, v), lambda[e as usize]);
        }
        TrussState { lambda: map }
    }

    /// Rebuilds λ wholesale from a snapshot (full recompute repair).
    pub fn reset(&mut self, g: &CsrGraph) {
        *self = TrussState::new(g);
    }

    /// λ of edge `{u, v}`, if present.
    pub fn lambda_of(&self, u: u32, v: u32) -> Option<u32> {
        self.lambda.get(&pair_key(u, v)).copied()
    }

    /// Repairs λ after `{u, v}` was added to `adj`. The new edge starts
    /// at λ = 0 and is promoted level by level; old candidates rise by
    /// at most one at the level they sit on.
    pub fn after_insert(&mut self, adj: &[Vec<u32>], u: u32, v: u32) -> RepairStats {
        let e_key = pair_key(u, v);
        self.lambda.insert(e_key, 0);
        let mut stats = RepairStats {
            changed: 1, // the new edge's entry itself
            scope: 0,
        };
        let mut level = 0u32;
        loop {
            let (promoted, e_survived, scope) = self.promote_level(adj, (u, v), level);
            stats.changed += promoted;
            stats.scope += scope;
            if !e_survived {
                break;
            }
            level += 1;
        }
        stats
    }

    /// One promotion round at `level`: collects the candidate set (λ =
    /// `level` edges triangle-connected to `e` through λ ≥ `level`
    /// partners), peels it with effective supports, and promotes the
    /// survivors to `level + 1`. Returns (promotions, whether `e`
    /// itself was promoted, candidates examined).
    fn promote_level(
        &mut self,
        adj: &[Vec<u32>],
        e: (u32, u32),
        level: u32,
    ) -> (usize, bool, usize) {
        debug_assert_eq!(self.lambda_of(e.0, e.1), Some(level));
        // BFS over candidates, starting from the new edge.
        let mut index: HashMap<u64, usize> = HashMap::new();
        let mut cand: Vec<(u32, u32)> = vec![e];
        index.insert(pair_key(e.0, e.1), 0);
        let mut ws = Vec::new();
        let mut head = 0;
        while head < cand.len() {
            let (a, b) = cand[head];
            head += 1;
            common_neighbors(adj, a, b, &mut ws);
            let ws_local = std::mem::take(&mut ws);
            for &w in &ws_local {
                let (ka, kb) = (pair_key(a, w), pair_key(b, w));
                let (la, lb) = (self.lambda[&ka], self.lambda[&kb]);
                if la < level || lb < level {
                    continue;
                }
                for (key, l, x, y) in [(ka, la, a, w), (kb, lb, b, w)] {
                    if l == level && !index.contains_key(&key) {
                        index.insert(key, cand.len());
                        cand.push((x, y));
                    }
                }
            }
            ws = ws_local;
        }
        // Effective support: triangles whose two partner edges each have
        // λ > level or are alive candidates. Non-candidate λ = level
        // partners can never reach level + 1, so they do not count.
        let mut alive = vec![true; cand.len()];
        let qual = |key: u64, l: u32, index: &HashMap<u64, usize>, alive: &[bool]| {
            l > level || index.get(&key).is_some_and(|&i| alive[i])
        };
        let mut sup = vec![0u32; cand.len()];
        for (i, &(a, b)) in cand.iter().enumerate() {
            common_neighbors(adj, a, b, &mut ws);
            let mut s = 0;
            for &w in &ws {
                let (ka, kb) = (pair_key(a, w), pair_key(b, w));
                if qual(ka, self.lambda[&ka], &index, &alive)
                    && qual(kb, self.lambda[&kb], &index, &alive)
                {
                    s += 1;
                }
            }
            sup[i] = s;
        }
        // Peel candidates with support ≤ level; each triangle is
        // subtracted from its remaining partners at its first death.
        let mut queue: Vec<usize> = (0..cand.len()).filter(|&i| sup[i] <= level).collect();
        let mut qhead = 0;
        while qhead < queue.len() {
            let i = queue[qhead];
            qhead += 1;
            if !alive[i] {
                continue;
            }
            alive[i] = false;
            let (a, b) = cand[i];
            common_neighbors(adj, a, b, &mut ws);
            let ws_local = std::mem::take(&mut ws);
            for &w in &ws_local {
                let (ka, kb) = (pair_key(a, w), pair_key(b, w));
                let (la, lb) = (self.lambda[&ka], self.lambda[&kb]);
                for (key, other_key, other_l) in [(ka, kb, lb), (kb, ka, la)] {
                    if let Some(&j) = index.get(&key) {
                        if alive[j] && qual(other_key, other_l, &index, &alive) {
                            sup[j] -= 1;
                            if sup[j] <= level {
                                queue.push(j);
                            }
                        }
                    }
                }
            }
            ws = ws_local;
        }
        let mut promoted = 0;
        for (i, &(a, b)) in cand.iter().enumerate() {
            if alive[i] {
                *self
                    .lambda
                    .get_mut(&pair_key(a, b))
                    .expect("candidate edge") = level + 1;
                promoted += 1;
            }
        }
        (promoted, alive[0], cand.len())
    }

    /// Repairs λ after `{u, v}` was removed from `adj`. `witnesses` are
    /// the common neighbors of `u` and `v` *before* the removal (the
    /// apexes of the destroyed triangles).
    pub fn after_delete(
        &mut self,
        adj: &[Vec<u32>],
        u: u32,
        v: u32,
        witnesses: &[u32],
    ) -> RepairStats {
        let le = self
            .lambda
            .remove(&pair_key(u, v))
            .expect("deleted edge was tracked");
        let mut stats = RepairStats {
            changed: 1, // the removed entry itself
            scope: 0,
        };
        // A destroyed triangle seeds edge g at g's own level k only if
        // the triangle counted toward g's support there: both partners
        // (the deleted edge and the third edge) had λ ≥ k.
        let mut seeds_by_level: BTreeMap<u32, Vec<(u32, u32)>> = BTreeMap::new();
        for &w in witnesses {
            let (lu, lv) = (self.lambda[&pair_key(u, w)], self.lambda[&pair_key(v, w)]);
            if le >= lu && lv >= lu && lu > 0 {
                seeds_by_level.entry(lu).or_default().push((u, w));
            }
            if le >= lv && lu >= lv && lv > 0 {
                seeds_by_level.entry(lv).or_default().push((v, w));
            }
        }
        // Levels are independent: a level-k demotion lands at k-1, which
        // crosses no other seeded level's λ ≥ k' threshold. The scope a
        // level examines does depend on what earlier levels demoted, so
        // they run in ascending order to keep that count deterministic.
        for (level, seeds) in seeds_by_level {
            let (dropped, scope) = self.demote_level(adj, &seeds, level);
            stats.changed += dropped;
            stats.scope += scope;
        }
        stats
    }

    /// One demotion round: gathers the level-`level` sub-truss region
    /// around `seeds`, peels members whose support (triangles with both
    /// partners at λ ≥ `level`) fell below `level`, and demotes the
    /// peeled edges to `level - 1`, cascading. Returns (demotions,
    /// candidates examined).
    fn demote_level(
        &mut self,
        adj: &[Vec<u32>],
        seeds: &[(u32, u32)],
        level: u32,
    ) -> (usize, usize) {
        let mut index: HashMap<u64, usize> = HashMap::new();
        let mut cand: Vec<(u32, u32)> = Vec::new();
        for &(a, b) in seeds {
            let key = pair_key(a, b);
            if self.lambda[&key] == level && !index.contains_key(&key) {
                index.insert(key, cand.len());
                cand.push((a, b));
            }
        }
        let mut ws = Vec::new();
        let mut head = 0;
        while head < cand.len() {
            let (a, b) = cand[head];
            head += 1;
            common_neighbors(adj, a, b, &mut ws);
            let ws_local = std::mem::take(&mut ws);
            for &w in &ws_local {
                let (ka, kb) = (pair_key(a, w), pair_key(b, w));
                let (la, lb) = (self.lambda[&ka], self.lambda[&kb]);
                if la < level || lb < level {
                    continue;
                }
                for (key, l, x, y) in [(ka, la, a, w), (kb, lb, b, w)] {
                    if l == level && !index.contains_key(&key) {
                        index.insert(key, cand.len());
                        cand.push((x, y));
                    }
                }
            }
            ws = ws_local;
        }
        // Support against the *current* λ: demoted edges drop to
        // level - 1 eagerly, so `λ ≥ level` is the whole liveness test
        // (λ > level edges can drop at most to their own level - 1,
        // which stays ≥ level).
        let mut sup = vec![0u32; cand.len()];
        for (i, &(a, b)) in cand.iter().enumerate() {
            common_neighbors(adj, a, b, &mut ws);
            let mut s = 0;
            for &w in &ws {
                if self.lambda[&pair_key(a, w)] >= level && self.lambda[&pair_key(b, w)] >= level {
                    s += 1;
                }
            }
            sup[i] = s;
        }
        let mut queue: Vec<usize> = (0..cand.len()).filter(|&i| sup[i] < level).collect();
        let mut qhead = 0;
        let mut dropped = 0;
        while qhead < queue.len() {
            let i = queue[qhead];
            qhead += 1;
            let (a, b) = cand[i];
            let key = pair_key(a, b);
            if self.lambda[&key] < level {
                continue; // already demoted
            }
            *self.lambda.get_mut(&key).expect("candidate edge") = level - 1;
            dropped += 1;
            common_neighbors(adj, a, b, &mut ws);
            let ws_local = std::mem::take(&mut ws);
            for &w in &ws_local {
                let (ka, kb) = (pair_key(a, w), pair_key(b, w));
                let (la, lb) = (self.lambda[&ka], self.lambda[&kb]);
                // The destroyed support only mattered to a partner still
                // at this level whose other partner still qualifies.
                for (key, l, other_l) in [(ka, la, lb), (kb, lb, la)] {
                    if l == level && other_l >= level {
                        if let Some(&j) = index.get(&key) {
                            sup[j] -= 1;
                            if sup[j] < level {
                                queue.push(j);
                            }
                        }
                    }
                }
            }
            ws = ws_local;
        }
        (dropped, cand.len())
    }
}
