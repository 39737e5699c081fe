//! Edge operations, batch coalescing, and the per-batch report.
//!
//! A mutation batch is a slice of [`EdgeOp`]s applied atomically by
//! [`DynamicGraph::apply`](crate::DynamicGraph::apply). Before any λ
//! repair runs, the batch is *coalesced*: ops are replayed against the
//! current edge set per normalized endpoint pair, and only the net
//! membership flips survive (an insert/delete pair on the same edge
//! cancels out entirely). The [`UpdateReport`] accounts for every op in
//! the batch — `applied + skipped + coalesced` always equals the batch
//! length — so callers feeding mutation streams from files can detect
//! typos (ops that silently no-op) instead of losing them.

use std::collections::HashMap;

/// One edge mutation. Endpoints are unordered; `Insert(u, v)` and
/// `Insert(v, u)` are the same operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeOp {
    /// Add the undirected edge `{u, v}`.
    Insert(u32, u32),
    /// Remove the undirected edge `{u, v}`.
    Delete(u32, u32),
}

impl EdgeOp {
    /// The endpoints, in the order given.
    pub fn endpoints(self) -> (u32, u32) {
        match self {
            EdgeOp::Insert(u, v) | EdgeOp::Delete(u, v) => (u, v),
        }
    }

    /// Whether this is an insertion.
    pub fn is_insert(self) -> bool {
        matches!(self, EdgeOp::Insert(..))
    }

    /// Parses one mutation-stream line: `+ U V` or `- U V`. Blank lines
    /// and `#` comments yield `Ok(None)`.
    pub fn parse_line(line: &str) -> Result<Option<EdgeOp>, String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let mut parts = line.split_whitespace();
        let op = parts.next().expect("non-empty line has a first token");
        let (u, v) = match (parts.next(), parts.next(), parts.next()) {
            (Some(u), Some(v), None) => (u, v),
            _ => return Err(format!("expected `+ U V` or `- U V`, got `{line}`")),
        };
        let u: u32 = u
            .parse()
            .map_err(|_| format!("bad vertex `{u}` in `{line}`"))?;
        let v: u32 = v
            .parse()
            .map_err(|_| format!("bad vertex `{v}` in `{line}`"))?;
        match op {
            "+" => Ok(Some(EdgeOp::Insert(u, v))),
            "-" => Ok(Some(EdgeOp::Delete(u, v))),
            other => Err(format!("unknown op `{other}` in `{line}` (want + or -)")),
        }
    }

    /// Parses a whole mutation stream (one op per line; `#` comments and
    /// blank lines ignored). Errors name the offending 1-based line.
    pub fn parse_stream(text: &str) -> Result<Vec<EdgeOp>, String> {
        let mut ops = Vec::new();
        for (i, line) in text.lines().enumerate() {
            match EdgeOp::parse_line(line) {
                Ok(Some(op)) => ops.push(op),
                Ok(None) => {}
                Err(e) => return Err(format!("line {}: {e}", i + 1)),
            }
        }
        Ok(ops)
    }
}

impl std::fmt::Display for EdgeOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeOp::Insert(u, v) => write!(f, "+ {u} {v}"),
            EdgeOp::Delete(u, v) => write!(f, "- {u} {v}"),
        }
    }
}

/// How a batch's λ state was repaired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// Exact incremental repair, bounded to the affected
    /// subcore/sub-nucleus regions ((1,2) and (2,3)).
    Incremental,
    /// λ re-peeled over the touched connected components only
    /// ((1,3), (2,4), (3,4)).
    ScopedRecompute,
    /// No λ state is maintained (topology-only graphs).
    #[default]
    TopologyOnly,
}

impl Strategy {
    /// Stable lowercase name (report/JSON spelling).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Incremental => "incremental",
            Strategy::ScopedRecompute => "scoped_recompute",
            Strategy::TopologyOnly => "topology_only",
        }
    }
}

/// What one [`DynamicGraph::apply`](crate::DynamicGraph::apply) did.
///
/// Accounting invariant: `applied + skipped + coalesced` equals the
/// length of the batch, and `applied == inserted + deleted`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Ops that changed the edge set (net, after coalescing).
    pub applied: usize,
    /// No-op or invalid ops: inserting an existing edge, deleting a
    /// missing one, self-loops, out-of-range endpoints.
    pub skipped: usize,
    /// Ops canceled *within* the batch (insert/delete churn on the same
    /// pair that nets out before any repair runs).
    pub coalesced: usize,
    /// Applied ops that were insertions.
    pub inserted: usize,
    /// Applied ops that were deletions.
    pub deleted: usize,
    /// Cells whose λ changed.
    pub cells_changed: usize,
    /// Cells visited by the bounded repair (re-peeled candidates, or the
    /// scoped-recompute region size). A measure of work done.
    pub scope_cells: usize,
    /// How λ was repaired for this batch.
    pub strategy: Strategy,
    /// Whether any persisted [`PreparedIndex`](nucleus_core::PreparedIndex)
    /// built for the pre-batch graph is now stale. Set iff `applied > 0`;
    /// [`PreparedIndex::matches`](nucleus_core::PreparedIndex::matches)
    /// fails closed on the mutated fingerprint.
    pub needs_reindex: bool,
}

impl UpdateReport {
    /// Folds another batch report into this one (for callers chunking a
    /// stream into many batches). `strategy` and `needs_reindex` take
    /// the most recent batch's values, with `needs_reindex` sticky.
    pub fn absorb(&mut self, other: &UpdateReport) {
        self.applied += other.applied;
        self.skipped += other.skipped;
        self.coalesced += other.coalesced;
        self.inserted += other.inserted;
        self.deleted += other.deleted;
        self.cells_changed += other.cells_changed;
        self.scope_cells += other.scope_cells;
        self.strategy = other.strategy;
        self.needs_reindex |= other.needs_reindex;
    }
}

/// Normalized endpoint key: smaller vertex in the high word.
pub(crate) fn pair_key(u: u32, v: u32) -> u64 {
    let (a, b) = if u <= v { (u, v) } else { (v, u) };
    ((a as u64) << 32) | b as u64
}

/// One coalesced, net-effective op with bookkeeping counts.
pub(crate) struct CoalescedBatch {
    /// Net ops, in order of each pair's *last* effective op.
    pub net: Vec<EdgeOp>,
    pub skipped: usize,
    pub coalesced: usize,
}

/// Replays `ops` against the membership oracle `has_edge`, returning
/// only the net membership flips. An op that would no-op against the
/// simulated state counts as skipped; flip pairs that cancel within the
/// batch count as coalesced.
pub(crate) fn coalesce<F: Fn(u32, u32) -> bool>(
    ops: &[EdgeOp],
    n: usize,
    has_edge: F,
) -> CoalescedBatch {
    // Per pair: (current simulated membership, effective flips so far).
    let mut sim: HashMap<u64, (bool, u32)> = HashMap::new();
    let mut skipped = 0usize;
    let mut order: Vec<u64> = Vec::new();
    for &op in ops {
        let (u, v) = op.endpoints();
        if u == v || (u as usize) >= n || (v as usize) >= n {
            skipped += 1;
            continue;
        }
        let key = pair_key(u, v);
        let entry = sim.entry(key).or_insert_with(|| (has_edge(u, v), 0));
        if entry.0 == op.is_insert() {
            skipped += 1; // no-op against the simulated state
            continue;
        }
        entry.0 = op.is_insert();
        if entry.1 == 0 {
            order.push(key);
        }
        entry.1 += 1;
    }
    let mut net = Vec::new();
    let mut coalesced = 0usize;
    for key in order {
        let (u, v) = ((key >> 32) as u32, key as u32);
        let (member, flips) = sim[&key];
        if flips % 2 == 1 {
            // Odd flips: one net op survives, the rest canceled out.
            net.push(if member {
                EdgeOp::Insert(u, v)
            } else {
                EdgeOp::Delete(u, v)
            });
            coalesced += (flips - 1) as usize;
        } else {
            coalesced += flips as usize;
        }
    }
    CoalescedBatch {
        net,
        skipped,
        coalesced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_ops_and_rejects_garbage() {
        assert_eq!(
            EdgeOp::parse_line("+ 3 7").unwrap(),
            Some(EdgeOp::Insert(3, 7))
        );
        assert_eq!(
            EdgeOp::parse_line("  - 0 1 ").unwrap(),
            Some(EdgeOp::Delete(0, 1))
        );
        assert_eq!(EdgeOp::parse_line("# comment").unwrap(), None);
        assert_eq!(EdgeOp::parse_line("").unwrap(), None);
        assert!(EdgeOp::parse_line("* 1 2").is_err());
        assert!(EdgeOp::parse_line("+ 1").is_err());
        assert!(EdgeOp::parse_line("+ 1 2 3").is_err());
        assert!(EdgeOp::parse_line("+ x 2").is_err());
        let err = EdgeOp::parse_stream("+ 1 2\nbogus line\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    /// Byte-level fuzz over a valid `--ops` stream: flips, truncations,
    /// random extensions and zeroed ranges give ops or a `line N:`
    /// error, never a panic, and whatever parses applies without one.
    #[test]
    fn fuzzed_op_streams_never_panic() {
        use rand::{Rng, SeedableRng};
        let stream = b"# churn\n+ 0 5\n- 0 1\n+ 2 3\n\n- 2 3\n+ 4294967295 1\n- 7 7\n";
        let g = nucleus_graph::CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4)]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        for iter in 0..2_000 {
            let mut bytes = stream.to_vec();
            for _ in 0..rng.gen_range(1..4u32) {
                match rng.gen_range(0..4u32) {
                    0 if !bytes.is_empty() => {
                        let i = rng.gen_range(0..bytes.len());
                        bytes[i] ^= rng.gen_range(1..=255u8);
                    }
                    1 => bytes.truncate(rng.gen_range(0..=bytes.len())),
                    2 => {
                        let extra = rng.gen_range(1..64usize);
                        bytes.extend((0..extra).map(|_| rng.gen_range(0..=255u8)));
                    }
                    _ if !bytes.is_empty() => {
                        let start = rng.gen_range(0..bytes.len());
                        let end = (start + rng.gen_range(1..32usize)).min(bytes.len());
                        bytes[start..end].fill(0);
                    }
                    _ => {}
                }
            }
            match EdgeOp::parse_stream(&String::from_utf8_lossy(&bytes)) {
                Ok(ops) => {
                    let mut dg = crate::DynamicGraph::new(&g, nucleus_core::Kind::Core);
                    let r = dg.apply(&ops);
                    assert_eq!(r.applied + r.skipped + r.coalesced, ops.len(), "{iter}");
                }
                Err(e) => assert!(e.starts_with("line "), "iteration {iter}: {e}"),
            }
        }
    }

    #[test]
    fn coalescing_cancels_churn() {
        // Edge {0,1} exists; {2,3} does not.
        let has = |u: u32, v: u32| (u.min(v), u.max(v)) == (0, 1);
        let ops = [
            EdgeOp::Delete(0, 1),
            EdgeOp::Insert(1, 0), // cancels the delete
            EdgeOp::Insert(2, 3),
            EdgeOp::Delete(2, 3),
            EdgeOp::Insert(3, 2), // net insert after 3 flips
            EdgeOp::Insert(2, 3), // no-op against simulated state
            EdgeOp::Insert(4, 4), // self-loop
            EdgeOp::Delete(9, 0), // out of range
        ];
        let c = coalesce(&ops, 5, has);
        assert_eq!(c.net, vec![EdgeOp::Insert(2, 3)]);
        assert_eq!(c.skipped, 3);
        assert_eq!(c.coalesced, 4);
        assert_eq!(c.net.len() + c.skipped + c.coalesced, ops.len());
    }
}
