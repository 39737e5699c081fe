//! Exact incremental (1,2) maintenance: the streaming k-core algorithm
//! of Sarıyüce et al. (PVLDB'13), operating on the shared adjacency of
//! a [`DynamicGraph`](crate::DynamicGraph).
//!
//! One edge update changes core numbers by at most one. The repaired
//! region is bounded two ways:
//!
//! * **insert** — every riser has current degree toward the would-be
//!   (k+1)-core above k, and the riser set's components each contain an
//!   endpoint of the new edge; so the traversal expands only through
//!   λ = k vertices whose optimistic degree (neighbors with λ ≥ k)
//!   exceeds k, instead of walking the whole subcore (T₁,₂).
//! * **delete** — only vertices whose core degree actually falls below
//!   k are ever touched: the cascade computes each vertex's core degree
//!   lazily on first contact and propagates drops, so an update that
//!   demotes nothing costs two degree scans.
//!
//! Membership and per-vertex scratch use stamped arrays, not hash maps;
//! repairs allocate nothing beyond the candidate list.

use nucleus_core::peel::peel;
use nucleus_core::space::VertexSpace;
use nucleus_graph::CsrGraph;

/// Per-vertex λ plus the stamp-marked scratch that bounds traversals.
#[derive(Clone, Debug)]
pub(crate) struct CoreState {
    lambda: Vec<u32>,
    /// `mark[v] == stamp` ⇔ `v` was touched by the current repair.
    mark: Vec<u32>,
    /// Valid when marked: candidate index (insert) with `u32::MAX`
    /// meaning "seen but not a candidate", or memoized core degree
    /// (delete).
    slot: Vec<u32>,
    stamp: u32,
}

/// What one repair touched: λ changes and candidates examined.
pub(crate) struct RepairStats {
    pub changed: usize,
    pub scope: usize,
}

impl CoreState {
    /// Initial λ via a static peel of `g` (which must match `adj`).
    pub fn new(g: &CsrGraph) -> CoreState {
        CoreState {
            lambda: peel(&VertexSpace::new(g)).lambda.to_vec(),
            mark: vec![0; g.n()],
            slot: vec![0; g.n()],
            stamp: 0,
        }
    }

    pub fn lambda(&self) -> &[u32] {
        &self.lambda
    }

    /// Replaces λ wholesale (full recompute repair path).
    pub fn reset(&mut self, g: &CsrGraph) {
        self.lambda = peel(&VertexSpace::new(g)).lambda.to_vec();
    }

    /// Neighbors of `w` with λ ≥ k — the optimistic degree toward the
    /// (k+1)-core (insert) or the current core degree (delete).
    fn cd(&self, adj: &[Vec<u32>], w: u32, k: u32) -> u32 {
        adj[w as usize]
            .iter()
            .filter(|&&x| self.lambda[x as usize] >= k)
            .count() as u32
    }

    /// Repairs λ after `{u, v}` was added to `adj`.
    pub fn after_insert(&mut self, adj: &[Vec<u32>], u: u32, v: u32) -> RepairStats {
        // Only λ = k vertices can rise to k + 1, and every component of
        // the riser set contains an endpoint — so seed from both.
        let k = self.lambda[u as usize].min(self.lambda[v as usize]);
        self.stamp += 1;
        let stamp = self.stamp;
        let mut cand: Vec<u32> = Vec::new();
        let mut scanned = 0usize;
        for seed in [u, v] {
            if self.lambda[seed as usize] == k && self.mark[seed as usize] != stamp {
                self.mark[seed as usize] = stamp;
                scanned += 1;
                if self.cd(adj, seed, k) > k {
                    self.slot[seed as usize] = cand.len() as u32;
                    cand.push(seed);
                } else {
                    self.slot[seed as usize] = u32::MAX;
                }
            }
        }
        // BFS, expanding only through vertices that can still rise
        // (optimistic degree > k): risers are connected through risers.
        let mut head = 0;
        while head < cand.len() {
            let w = cand[head];
            head += 1;
            for &x in &adj[w as usize] {
                if self.lambda[x as usize] == k && self.mark[x as usize] != stamp {
                    self.mark[x as usize] = stamp;
                    scanned += 1;
                    if self.cd(adj, x, k) > k {
                        self.slot[x as usize] = cand.len() as u32;
                        cand.push(x);
                    } else {
                        self.slot[x as usize] = u32::MAX;
                    }
                }
            }
        }
        // Effective degree: neighbors with λ > k, plus *candidate*
        // neighbors with λ = k (anything else can never reach the
        // (k+1)-core, so it does not count). Peel ed ≤ k; survivors
        // rise.
        let mut alive: Vec<bool> = vec![true; cand.len()];
        let in_cand = |state: &CoreState, x: u32| {
            state.mark[x as usize] == stamp && state.slot[x as usize] != u32::MAX
        };
        let mut ed: Vec<u32> = cand
            .iter()
            .map(|&w| {
                adj[w as usize]
                    .iter()
                    .filter(|&&x| self.lambda[x as usize] > k || in_cand(self, x))
                    .count() as u32
            })
            .collect();
        let mut queue: Vec<usize> = (0..cand.len()).filter(|&i| ed[i] <= k).collect();
        let mut head = 0;
        while head < queue.len() {
            let i = queue[head];
            head += 1;
            if !alive[i] {
                continue;
            }
            alive[i] = false;
            for &x in &adj[cand[i] as usize] {
                if in_cand(self, x) {
                    let j = self.slot[x as usize] as usize;
                    if alive[j] {
                        ed[j] -= 1;
                        if ed[j] <= k {
                            queue.push(j);
                        }
                    }
                }
            }
        }
        let mut changed = 0;
        for (i, &w) in cand.iter().enumerate() {
            if alive[i] {
                self.lambda[w as usize] = k + 1;
                changed += 1;
            }
        }
        RepairStats {
            changed,
            scope: scanned,
        }
    }

    /// Repairs λ after `{u, v}` was removed from `adj`.
    pub fn after_delete(&mut self, adj: &[Vec<u32>], u: u32, v: u32) -> RepairStats {
        let k = self.lambda[u as usize].min(self.lambda[v as usize]);
        if k == 0 {
            return RepairStats {
                changed: 0,
                scope: 0,
            }; // an isolated-ish endpoint: no core can drop
        }
        // Lazy cascade: memoize core degree (neighbors with λ ≥ k) per
        // touched λ = k vertex; a vertex drops to k - 1 when its count
        // falls below k, decrementing still-at-k neighbors. Vertices
        // whose count never falls are never visited.
        self.stamp += 1;
        let stamp = self.stamp;
        let mut scanned = 0usize;
        let mut queue: Vec<u32> = Vec::new();
        for seed in [u, v] {
            if self.lambda[seed as usize] == k && self.mark[seed as usize] != stamp {
                self.mark[seed as usize] = stamp;
                self.slot[seed as usize] = self.cd(adj, seed, k);
                scanned += 1;
                if self.slot[seed as usize] < k {
                    queue.push(seed);
                }
            }
        }
        let mut head = 0;
        let mut changed = 0;
        while head < queue.len() {
            let w = queue[head];
            head += 1;
            if self.lambda[w as usize] != k {
                continue; // already dropped (re-queued vertex)
            }
            self.lambda[w as usize] = k - 1;
            changed += 1;
            for &x in &adj[w as usize] {
                if self.lambda[x as usize] != k {
                    continue;
                }
                if self.mark[x as usize] != stamp {
                    // First contact *after* w dropped: the fresh count
                    // already excludes w, so no decrement.
                    self.mark[x as usize] = stamp;
                    self.slot[x as usize] = self.cd(adj, x, k);
                    scanned += 1;
                } else {
                    self.slot[x as usize] -= 1;
                }
                if self.slot[x as usize] < k {
                    queue.push(x);
                }
            }
        }
        RepairStats {
            changed,
            scope: scanned,
        }
    }
}
