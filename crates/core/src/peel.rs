//! The peeling process (`Set-λ`, Algorithm 1 of the paper): the
//! sequential bucket-queue loop ([`peel`]) every session runs, and the
//! frontier engine ([`peel_with_sink`]) that only the parallel FND
//! ([`crate::algo::fnd::fnd_parallel_with`]) rides.
//!
//! # The serial loop
//!
//! [`peel`] — and [`crate::algo::fnd::fnd`], which peels the same way —
//! starts with the ω₀ = 0 bypass: a cell in no container has λ = 0 and
//! decrements nothing, so one pass over ω₀ puts every such cell first
//! in the order, in ascending id (exactly where the bucket queue would
//! pop them), and the queue holds the remaining cells only. On sparse
//! inputs most edges lie in no triangle, so this skips most of the
//! queue work and every empty container scan.
//!
//! # The frontier-round invariant
//!
//! Serial `Set-λ` pops one minimum-ω cell at a time. The frontier
//! engine instead processes whole λ-levels in *rounds*: at level `k` it
//! repeatedly collects every unprocessed cell with current ω ≤ k (the
//! **frontier**), assigns them all `λ = k`, and applies their container
//! decrements concurrently (De Zoysa et al. 2021 use the same scheme
//! for shared-memory densest-subgraph peeling). Correctness rests on
//! two facts the serial loop also relies on:
//!
//! 1. **Saturating decrements.** ω is only ever decremented while
//!    strictly above the current level `k` (the `ω(v) > ω(u)` guard of
//!    Alg. 1), so concurrent decrements cannot drag a cell below the
//!    level floor; a cell whose ω reaches `k` mid-round joins the next
//!    frontier of the *same* level and still receives `λ = k` — exactly
//!    the value the serial loop would assign.
//! 2. **One decrement per dead container.** A container dies when its
//!    first member is peeled. Round stamps
//!    ([`crate::space::PeelCells`]) recover the serial accounting: a
//!    container with a member stamped in an *earlier* round is dead and
//!    skipped; among members stamped in the *same* round, only the
//!    smallest cell id applies the container's decrements, so every
//!    dead container decrements each surviving co-cell exactly once.
//!
//! Rounds emit cells in ascending-id order, level by level, so the
//! produced [`Peeling::order`] is **λ-monotone** — the only property
//! DF-Traversal ([`crate::algo::dft`]) needs from a peeling order — and
//! the engine is fully deterministic: λ values equal the serial
//! loop's bit for bit (the decomposition is unique), and the order
//! itself is identical for every thread count, because frontier
//! *membership* is determined at round barriers, not by thread timing.
//!
//! # Hybrid rounds
//!
//! On heavy-tailed (R-MAT-style) inputs, dense cores degenerate into
//! long cascades of tiny frontiers, and per-round overhead (barrier,
//! sort, work-estimate) outweighs the batching win. The engine is
//! therefore hybrid, with two serial fallbacks keyed off
//! [`FrontierOptions::serial_round_threshold`]:
//!
//! * A **mid-level** frontier falling below the threshold drains the
//!   rest of its λ-level through a FIFO worklist over the same packed
//!   cell words — each drained cell gets a fresh, unique round stamp at
//!   discovery, so the stamp order stays a total processed-before order
//!   and every invariant above carries over unchanged.
//! * A λ-level whose **opening** frontier holds less than [an eighth]
//!   of the remaining cells signals the heavy-tail regime: the rest of
//!   the peel is a long ladder of small levels, where both the rounds
//!   *and* the per-level `alive` compaction scan (O(alive) per level)
//!   cost more than the serial loop. The engine then abandons rounds
//!   entirely and **drains the whole residual** through one serial
//!   bucket queue (the serial loop's layout, built over the residual
//!   cells only) — on R-MAT-style inputs this fires on the very first
//!   level (which opens with ~10% of cells, vs. 74–99% for ER/BA),
//!   while wide-opening inputs never trigger it and keep the full
//!   frontier win.
//!
//! Both decisions depend only on frontier sizes, never thread timing,
//! so determinism across thread counts is preserved.
//!
//! [an eighth]: RESIDUAL_OPENING_FRACTION
//!
//! # Riding algorithms: the sink seam
//!
//! The driver is generic over a [`PeelSink`]: per peeled cell it hands
//! the sink the container scan, with `(stamp, id)` lexicographic order
//! (the emission order) as the processed-before relation. FND
//! ([`crate::algo::fnd::fnd_parallel_with`]) plugs in a classifying
//! sink that applies the `Set-λ` decrements, unions same-λ cells
//! through a lock-free [`nucleus_dsf::ConcurrentSets`] and records
//! cross-λ adjacencies — which is how Alg. 8, order-sequential in its
//! textbook form, rides the frontier engine: classification per
//! container is independent of *which* λ-monotone serialization the
//! stamps encode, so the level partitions and the canonical hierarchy
//! come out identical to the serial loop's.
//!
//! The frontier engine assumes container enumeration is cheap enough to
//! repeat per round participant — run it over an
//! [`crate::space::IndexedSpace`] (flat [`ContainerIndex`] scans).
//!
//! [`ContainerIndex`]: crate::space::ContainerIndex

use std::cell::Cell;

use nucleus_cliques::balanced_ranges;
use nucleus_graph::bucket::PeelBuckets;

use crate::space::{PeelBackend, PeelCells};

/// Output of the peeling phase: the λ_s value of every cell plus the
/// processing order (non-decreasing in λ — the property both DFT and FND
/// rely on).
#[derive(Clone, Debug)]
pub struct Peeling {
    /// λ_s per cell: the largest k such that the cell lies in a k-(r,s)
    /// nucleus.
    pub lambda: Vec<u32>,
    /// Maximum λ over all cells.
    pub max_lambda: u32,
    /// Cells in processing (peeling) order; λ is non-decreasing along it.
    pub order: Vec<u32>,
}

impl Peeling {
    /// λ of a cell.
    #[inline]
    pub fn lambda_of(&self, cell: u32) -> u32 {
        self.lambda[cell as usize]
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.lambda.len()
    }

    /// Histogram of λ values (index = λ, value = number of cells).
    pub fn lambda_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.max_lambda as usize + 1];
        for &l in &self.lambda {
            h[l as usize] += 1;
        }
        h
    }
}

/// Runs `Set-λ` (Algorithm 1): repeatedly process an unprocessed cell of
/// minimum ω, assign `λ = ω`, and decrement the ω of unprocessed
/// co-cells in still-alive containers.
///
/// ```
/// use nucleus_core::peel::peel;
/// use nucleus_core::space::{EdgeSpace, VertexSpace};
/// use nucleus_graph::CsrGraph;
///
/// // triangle with a tail: core numbers [2,2,2,1], trussness [1,1,1,0]
/// let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
/// assert_eq!(peel(&VertexSpace::new(&g)).lambda, vec![2, 2, 2, 1]);
/// let truss = peel(&EdgeSpace::new(&g));
/// assert_eq!(truss.max_lambda, 1);
/// assert_eq!(truss.lambda_of(g.edge_id(2, 3).unwrap()), 0);
/// ```
pub fn peel<B: PeelBackend>(space: &B) -> Peeling {
    let (mut q, mut lambda, mut order) = serial_start(space.degrees());
    let mut max_lambda = 0u32;
    while let Some((u, k)) = q.pop_min() {
        lambda[u as usize] = k;
        max_lambda = max_lambda.max(k);
        order.push(u);
        space.for_each_container(u, |others| {
            // A container with an already-processed cell is dead: it was
            // accounted for when that cell was peeled (Alg. 1, line 8).
            if others.iter().any(|&v| q.is_popped(v)) {
                return;
            }
            for &v in others {
                if q.key(v) > k {
                    q.decrement(v);
                }
            }
        });
    }
    Peeling {
        lambda,
        max_lambda,
        order,
    }
}

/// The start both serial loops ([`peel`] and [`crate::algo::fnd::fnd`])
/// share, given the initial ω: the bucket queue, λ and the order so far,
/// after the ω₀ = 0 bypass (see the module docs). No loop ever asks
/// whether a bypassed cell was popped, because it lies in no container.
pub(crate) fn serial_start(degrees: Vec<u32>) -> (PeelBuckets, Vec<u32>, Vec<u32>) {
    let n = degrees.len();
    let mut order = Vec::with_capacity(n);
    let q = PeelBuckets::skipping_zeros(degrees, &mut order);
    (q, vec![0u32; n], order)
}

/// Tuning for the frontier engine ([`peel_with_sink`]).
#[derive(Clone, Copy, Debug)]
pub struct FrontierOptions {
    /// Worker threads for frontier rounds. `0` means "all available
    /// CPUs"; `1` never spawns and uses plain (non-CAS) stores.
    pub threads: usize,
    /// Rounds whose total work estimate (Σ 1 + ω₀ over the frontier)
    /// falls below this run inline on the calling thread — spawning
    /// costs more than it buys on small frontiers. Set to `0` to force
    /// every round through the spawn path (the equivalence tests do,
    /// so the concurrent code path is exercised on tiny graphs).
    pub min_parallel_work: usize,
    /// Hybrid fallback: when a mid-level frontier holds fewer cells
    /// than this, the rest of its λ-level drains through a serial FIFO
    /// worklist instead of parallel rounds (see the module docs) —
    /// tiny-frontier cascades cost more in round overhead than they
    /// gain in batching. `0` disables the hybrid fallbacks entirely
    /// (pure frontier rounds), including the whole-residual switch on
    /// narrow *level openings* ([`RESIDUAL_OPENING_FRACTION`]), which
    /// is otherwise relative to the remaining cell count rather than
    /// sized by this threshold. The default (64) is sized so the
    /// drained levels are the ones whose whole cascade is cheaper than
    /// one round's sort-and-restamp machinery; only the equivalence
    /// tests set other values.
    pub serial_round_threshold: usize,
}

impl Default for FrontierOptions {
    fn default() -> Self {
        FrontierOptions {
            threads: 0,
            min_parallel_work: 1 << 14,
            serial_round_threshold: 64,
        }
    }
}

/// Whole-residual switch trigger: when a λ-level *opens* with fewer
/// than `1/RESIDUAL_OPENING_FRACTION` of the cells still unpeeled, the
/// engine abandons rounds and hands everything that remains to a serial
/// bucket queue. Heavy-tailed inputs (R-MAT) open their first level
/// with ~10% of the cells and then decay; wide-opening inputs (ER, BA)
/// open with 70–99%, so the relative test separates the two regimes on
/// the very first level instead of waiting for an absolute frontier
/// size that scales poorly across graph sizes.
pub const RESIDUAL_OPENING_FRACTION: usize = 8;

/// A worker-thread setting with `0` resolved to the CPU count.
pub(crate) fn effective_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    }
}

/// What a riding algorithm does with each peeled cell's containers.
///
/// The driver ([`peel_with_sink`]) calls [`scan_cell`] once per peeled
/// cell — from worker threads during parallel rounds, from the calling
/// thread during inline rounds and serial drains — and hands it the
/// processed-before relation as `(stamp, id)` lexicographic order:
/// co-cell `v` precedes `u` iff `stamp(v) < stamp` or
/// `stamp(v) == stamp && v < u` (unpeeled cells carry the
/// [`PeelCells::ALIVE`] sentinel, which sorts last). Whatever the sink
/// wants to keep beyond `next`-frontier membership it accumulates in a
/// per-worker [`Part`], which the driver feeds back through
/// [`absorb_part`] in deterministic (range) order after each round.
///
/// [`scan_cell`]: PeelSink::scan_cell
/// [`Part`]: PeelSink::Part
/// [`absorb_part`]: PeelSink::absorb_part
pub trait PeelSink<B: PeelBackend + ?Sized>: Sync {
    /// Per-worker accumulator, concatenated in range order.
    type Part: Send;

    /// A fresh, empty accumulator.
    fn new_part(&self) -> Self::Part;

    /// Processes the containers of the just-peeled cell `u` (peeled at
    /// λ-level `level` with round stamp `stamp`). `dec` applies the
    /// saturating ω decrement and reports `true` when its target just
    /// dropped to `level` — such cells must be pushed to `next`.
    #[allow(clippy::too_many_arguments)] // internal seam: one impl per algorithm
    fn scan_cell<D: Fn(u32) -> bool>(
        &self,
        space: &B,
        cells: &PeelCells,
        lambda: &[u32],
        u: u32,
        level: u32,
        stamp: u32,
        dec: &D,
        next: &mut Vec<u32>,
        part: &mut Self::Part,
    );

    /// Folds one worker's accumulator back into the sink.
    fn absorb_part(&mut self, part: Self::Part);
}

/// The frontier engine behind [`crate::algo::fnd::fnd_parallel_with`]:
/// frontier rounds plus the hybrid serial drain, generic over the
/// per-cell [`PeelSink`]. The sink applies the container decrements
/// through the `dec` closure it is handed.
pub fn peel_with_sink<B: PeelBackend + Sync, S: PeelSink<B>>(
    space: &B,
    options: FrontierOptions,
    sink: &mut S,
) -> Peeling {
    let n = space.cell_count();
    let threads = effective_threads(options.threads);
    let degrees = space.degrees();
    let mut lambda = vec![0u32; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut max_lambda = 0u32;
    // Zero-container fast path: ω₀ = 0 cells have λ = 0, appear in no
    // record (a co-cell always has ω ≥ 1) and decrement nothing — emit
    // them directly, in the same ascending order the level-0 frontier
    // would produce. Everything else enters the alive list, compacted
    // on every level-opening scan; `k` starts at the smallest live ω.
    let mut alive: Vec<u32> = Vec::with_capacity(n);
    let mut k = u32::MAX;
    for u in 0..n as u32 {
        let d = degrees[u as usize];
        if d == 0 {
            order.push(u);
        } else {
            alive.push(u);
            k = k.min(d);
        }
    }
    // Packed (processed-round, live ω) word per cell — one cache-line
    // touch answers both hot-loop questions (see PeelCells).
    let cells = PeelCells::new(&degrees);
    let mut frontier: Vec<u32> = Vec::new();
    let mut next: Vec<u32> = Vec::new();
    let mut round = 0u32;
    while order.len() < n {
        // Open level k: pull every alive cell with current ω ≤ k into
        // the frontier (stamping it in the same pass — the packed word
        // is already in hand) and remember the smallest ω above k so
        // empty levels are jumped instead of scanned one by one.
        frontier.clear();
        let mut min_above = u32::MAX;
        alive.retain(|&u| {
            let (stamp, w) = cells.load(u);
            if stamp != PeelCells::ALIVE {
                return false;
            }
            if w <= k {
                cells.mark_with_omega(u, round, w);
                lambda[u as usize] = k;
                frontier.push(u);
                false
            } else {
                min_above = min_above.min(w);
                true
            }
        });
        if frontier.is_empty() {
            debug_assert!(!alive.is_empty(), "cells left but none reachable");
            k = min_above;
            continue;
        }
        if options.serial_round_threshold > 0
            && frontier.len() * RESIDUAL_OPENING_FRACTION < frontier.len() + alive.len()
        {
            // The level opens with a sliver of what remains: heavy-tail
            // regime. Finish the whole peel through the serial bucket
            // queue — no more level-opening scans, no more rounds.
            order.extend_from_slice(&frontier);
            max_lambda = k;
            drain_residual(
                space,
                &cells,
                &mut lambda,
                &mut order,
                &mut max_lambda,
                &frontier,
                &alive,
                k,
                round,
                sink,
            );
            debug_assert_eq!(order.len(), n, "residual drain left cells unprocessed");
            break;
        }
        loop {
            order.extend_from_slice(&frontier);
            max_lambda = k;
            if options.serial_round_threshold > 0 && frontier.len() < options.serial_round_threshold
            {
                // Hybrid fallback: this frontier (and whatever cascade
                // it triggers) is too small for round machinery — drain
                // the rest of the level serially. The drain stamps each
                // discovered cell with a fresh round, so `round` jumps.
                round = drain_level(
                    space,
                    &cells,
                    &mut lambda,
                    &mut order,
                    &frontier,
                    k,
                    round,
                    sink,
                );
                break;
            }
            next.clear();
            frontier_round(
                space,
                &cells,
                &frontier,
                &lambda,
                &degrees,
                k,
                round,
                threads,
                options.min_parallel_work,
                sink,
                &mut next,
            );
            round += 1;
            if next.is_empty() {
                break;
            }
            std::mem::swap(&mut frontier, &mut next);
            // Membership was fixed at the barrier; sorting makes the
            // emitted order independent of which worker found what.
            // (Level-opening frontiers skip this: the compacting scan
            // above produces them in ascending id order already.)
            frontier.sort_unstable();
            for &u in &frontier {
                cells.mark(u, round);
                lambda[u as usize] = k;
            }
        }
        k += 1;
    }
    Peeling {
        lambda,
        max_lambda,
        order,
    }
}

/// Serially exhausts λ-level `k`: processes the (already stamped,
/// ascending-id) `seed` frontier and every cell it cascades onto
/// through a FIFO worklist. Each discovered cell is stamped with a
/// fresh, unique round at discovery and emitted there, so processing
/// order equals stamp order and `(stamp, id)` stays a total
/// processed-before order — the sink sees exactly the same contract as
/// in parallel rounds. Returns the next unused round number.
#[allow(clippy::too_many_arguments)] // internal: single call site
fn drain_level<B: PeelBackend + Sync, S: PeelSink<B>>(
    space: &B,
    cells: &PeelCells,
    lambda: &mut [u32],
    order: &mut Vec<u32>,
    seed: &[u32],
    k: u32,
    round: u32,
    sink: &mut S,
) -> u32 {
    let mut pending: Vec<u32> = seed.to_vec();
    let mut head = 0usize;
    let mut next_stamp = round + 1;
    let mut part = sink.new_part();
    let mut next: Vec<u32> = Vec::new();
    let dec = |v: u32| cells.dec_above(v, k);
    while head < pending.len() {
        let u = pending[head];
        head += 1;
        let stamp = cells.stamp(u);
        next.clear();
        sink.scan_cell(
            space, cells, lambda, u, k, stamp, &dec, &mut next, &mut part,
        );
        for &v in &next {
            cells.mark(v, next_stamp);
            next_stamp += 1;
            lambda[v as usize] = k;
            order.push(v);
            pending.push(v);
        }
    }
    sink.absorb_part(part);
    next_stamp
}

/// Batagelj–Zaversnik bucket queue over the *residual* subset of cells,
/// used by the whole-residual hybrid drain. Same array layout and
/// laziness invariant as [`PeelBuckets`], with two differences that
/// matter at the switch point: it is built from a member list —
/// O(members) queue work plus two zero-filled n-sized arrays, instead
/// of O(n) queue operations over every already-peeled cell — and every
/// method takes `&self` (`Cell` fields: zero-cost single-threaded
/// interior mutability), so the sink-facing `dec` closure can drive it
/// without a `RefCell` turnstile in the hottest loop of the peel.
///
/// Keys of non-members read as 0; since every member enters with
/// ω > floor ≥ 0, the caller-side `key > floor` guard makes non-member
/// decrements (co-cells of the seed frontier) a natural no-op.
struct ResidualBuckets {
    bin: Vec<Cell<usize>>,
    pos: Vec<Cell<usize>>,
    vert: Vec<Cell<u32>>,
    key: Vec<Cell<u32>>,
    cursor: Cell<usize>,
    floor: Cell<u32>,
}

impl ResidualBuckets {
    /// Builds the queue over `members` (current ω read from `cells`),
    /// with the λ level `floor` the drain enters at (debug-checked
    /// against pops and decrements, like [`PeelBuckets`]' floor).
    fn new(n: usize, members: &[u32], cells: &PeelCells, floor: u32) -> Self {
        let mut key = vec![0u32; n];
        let mut max_key = 0u32;
        for &u in members {
            let w = cells.load(u).1;
            key[u as usize] = w;
            max_key = max_key.max(w);
        }
        let mut bin = vec![0usize; max_key as usize + 2];
        for &u in members {
            bin[key[u as usize] as usize + 1] += 1;
        }
        for d in 1..bin.len() {
            bin[d] += bin[d - 1];
        }
        let mut vert = vec![0u32; members.len()];
        let mut pos = vec![0usize; n];
        let mut fill = bin.clone();
        for &u in members {
            let d = key[u as usize] as usize;
            vert[fill[d]] = u;
            pos[u as usize] = fill[d];
            fill[d] += 1;
        }
        ResidualBuckets {
            bin: bin.into_iter().map(Cell::new).collect(),
            pos: pos.into_iter().map(Cell::new).collect(),
            vert: vert.into_iter().map(Cell::new).collect(),
            key: key.into_iter().map(Cell::new).collect(),
            cursor: Cell::new(0),
            floor: Cell::new(floor),
        }
    }

    /// Current key of `x` (0 for non-members).
    #[inline]
    fn key(&self, x: u32) -> u32 {
        self.key[x as usize].get()
    }

    /// Pops a member with the minimum current key; keys of successive
    /// pops are non-decreasing.
    fn pop_min(&self) -> Option<(u32, u32)> {
        let c = self.cursor.get();
        if c >= self.vert.len() {
            return None;
        }
        let x = self.vert[c].get();
        let k = self.key[x as usize].get();
        debug_assert!(k >= self.floor.get(), "residual keys regressed");
        self.floor.set(k);
        self.cursor.set(c + 1);
        Some((x, k))
    }

    /// Decrements the key of an unpopped member by one; caller must
    /// hold the `key(x) > floor` peeling guard.
    #[inline]
    fn decrement(&self, x: u32) {
        let xi = x as usize;
        let d = self.key[xi].get() as usize;
        debug_assert!(
            self.key[xi].get() > self.floor.get(),
            "decrement would drop key below peeling floor"
        );
        let p = self.pos[xi].get();
        let start = self.bin[d].get().max(self.cursor.get());
        debug_assert_eq!(
            self.key[self.vert[start].get() as usize].get(),
            self.key[xi].get()
        );
        let w = self.vert[start].get();
        if w != x {
            self.vert[p].set(w);
            self.vert[start].set(x);
            self.pos[w as usize].set(p);
            self.pos[xi].set(start);
        }
        self.bin[d].set(start + 1);
        self.key[xi].set(self.key[xi].get() - 1);
    }
}

/// Serially exhausts **everything that is left**: processes the
/// (already stamped, ascending-id) `seed` frontier of level `k`, then
/// pops the remaining `alive` cells from a [`ResidualBuckets`] queue in
/// λ-monotone order — the serial loop, entered mid-peel.
/// Invoked when a λ-level opens with less than a
/// [`RESIDUAL_OPENING_FRACTION`]th of the remaining cells: from that
/// point on, the per-level `alive` compaction scan (O(alive) per level)
/// costs more than every remaining frontier is worth, so one
/// O(residual) queue build replaces all of them.
///
/// Each pop is stamped with a fresh, unique round before its container
/// scan, so `(stamp, id)` remains a total processed-before order and
/// the sink contract is identical to [`drain_level`]'s (the packed ω
/// halves go stale — the queue keys schedule the pops — but no sink
/// reads ω, only stamps), and the λ values and emitted order are those
/// of a serial bucket-queue peel of the residual.
#[allow(clippy::too_many_arguments)] // internal: single call site
fn drain_residual<B: PeelBackend + Sync, S: PeelSink<B>>(
    space: &B,
    cells: &PeelCells,
    lambda: &mut [u32],
    order: &mut Vec<u32>,
    max_lambda: &mut u32,
    seed: &[u32],
    alive: &[u32],
    k: u32,
    round: u32,
    sink: &mut S,
) {
    let n = lambda.len();
    let q = ResidualBuckets::new(n, alive, cells, k);
    let floor = Cell::new(k);
    let dec = |v: u32| {
        if q.key(v) > floor.get() {
            q.decrement(v);
            q.key(v) == floor.get()
        } else {
            false
        }
    };
    let mut part = sink.new_part();
    let mut next: Vec<u32> = Vec::new();
    // The seed frontier shares the stamp `round` and is already in
    // `order`; process it FIFO in ascending id, like a shared-stamp
    // round. Cells its cascade drags down to k wait in bucket k and
    // come back out of the queue first (pops are λ-monotone).
    for &u in seed {
        sink.scan_cell(
            space, cells, lambda, u, k, round, &dec, &mut next, &mut part,
        );
        next.clear();
    }
    let mut next_stamp = round + 1;
    while let Some((u, ku)) = q.pop_min() {
        floor.set(ku);
        cells.mark(u, next_stamp);
        lambda[u as usize] = ku;
        *max_lambda = (*max_lambda).max(ku);
        order.push(u);
        sink.scan_cell(
            space, cells, lambda, u, ku, next_stamp, &dec, &mut next, &mut part,
        );
        next.clear();
        next_stamp += 1;
    }
    sink.absorb_part(part);
}

/// Applies one round's container decrements, appending the cells whose
/// ω crossed down to exactly `k` — the next frontier of this level —
/// to `next` (membership is unique: only the decrement that performs
/// the `k + 1 → k` transition reports the cell). `next` is a reused
/// buffer, cleared by the caller.
#[allow(clippy::too_many_arguments)] // internal: one call site per engine path
fn frontier_round<B: PeelBackend + Sync, S: PeelSink<B>>(
    space: &B,
    cells: &PeelCells,
    frontier: &[u32],
    lambda: &[u32],
    degrees: &[u32],
    k: u32,
    round: u32,
    threads: usize,
    min_parallel_work: usize,
    sink: &mut S,
    next: &mut Vec<u32>,
) {
    let weight = |u: u32| degrees[u as usize] as usize + 1;
    if threads <= 1 || frontier.iter().map(|&u| weight(u)).sum::<usize>() < min_parallel_work {
        // Inline fast path: same packed storage, but single-writer
        // decrements (relaxed load + store compile to plain moves — no
        // compare-exchange in the single-threaded engine).
        let dec = |v: u32| cells.dec_above(v, k);
        let mut part = sink.new_part();
        for &u in frontier {
            sink.scan_cell(space, cells, lambda, u, k, round, &dec, next, &mut part);
        }
        sink.absorb_part(part);
        return;
    }
    let dec = |v: u32| cells.dec_above_atomic(v, k);
    let weights: Vec<usize> = frontier.iter().map(|&u| weight(u)).collect();
    let ranges = balanced_ranges(&weights, threads);
    let parts: Vec<(Vec<u32>, S::Part)> = std::thread::scope(|scope| {
        let sink_ref: &S = sink;
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                let owned = &frontier[range];
                let dec = &dec;
                scope.spawn(move || {
                    let mut found = Vec::new();
                    let mut part = sink_ref.new_part();
                    for &u in owned {
                        sink_ref.scan_cell(
                            space, cells, lambda, u, k, round, dec, &mut found, &mut part,
                        );
                    }
                    (found, part)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("peel worker panicked"))
            .collect()
    });
    for (mut found, part) in parts {
        next.append(&mut found);
        sink.absorb_part(part);
    }
}

/// Brute-force reference: computes λ by literally re-running the
/// definition — repeatedly delete all cells with ω < k from the highest
/// k downward. Exponentially clearer, polynomially slower; used by the
/// property tests to pin down [`peel`].
pub fn peel_reference<B: PeelBackend>(space: &B) -> Vec<u32> {
    let n = space.cell_count();
    let mut lambda = vec![0u32; n];
    let mut alive = vec![true; n];
    let mut k = 1u32;
    loop {
        // Iteratively delete alive cells whose alive-container count < k.
        let mut changed = true;
        while changed {
            changed = false;
            for c in 0..n as u32 {
                if !alive[c as usize] {
                    continue;
                }
                let mut deg = 0u32;
                space.for_each_container(c, |others| {
                    if others.iter().all(|&v| alive[v as usize]) {
                        deg += 1;
                    }
                });
                if deg < k {
                    alive[c as usize] = false;
                    changed = true;
                }
            }
        }
        let mut any = false;
        for c in 0..n {
            if alive[c] {
                lambda[c] = k;
                any = true;
            }
        }
        if !any {
            break;
        }
        k += 1;
    }
    lambda
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{EdgeSpace, TriangleSpace, VertexSpace};
    use nucleus_graph::CsrGraph;

    fn complete(n: u32) -> CsrGraph {
        let mut edges = vec![];
        for u in 0..n {
            for v in u + 1..n {
                edges.push((u, v));
            }
        }
        CsrGraph::from_edges(n as usize, &edges)
    }

    #[test]
    fn core_numbers_of_clique() {
        let g = complete(6);
        let p = peel(&VertexSpace::new(&g));
        assert!(p.lambda.iter().all(|&l| l == 5));
        assert_eq!(p.max_lambda, 5);
    }

    #[test]
    fn core_numbers_of_path_and_star() {
        let path = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = peel(&VertexSpace::new(&path));
        assert!(p.lambda.iter().all(|&l| l == 1));

        let star = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let p = peel(&VertexSpace::new(&star));
        assert!(p.lambda.iter().all(|&l| l == 1));
    }

    #[test]
    fn isolated_vertices_have_lambda_zero() {
        let g = CsrGraph::from_edges(4, &[(0, 1)]);
        let p = peel(&VertexSpace::new(&g));
        assert_eq!(p.lambda[2], 0);
        assert_eq!(p.lambda[3], 0);
        assert_eq!(p.lambda[0], 1);
    }

    #[test]
    fn order_is_monotone_in_lambda() {
        let g = crate::test_graphs::nested_cores();
        let p = peel(&VertexSpace::new(&g));
        let mut last = 0;
        for &c in &p.order {
            assert!(p.lambda_of(c) >= last);
            last = p.lambda_of(c);
        }
        assert_eq!(p.order.len(), g.n());
    }

    #[test]
    fn truss_numbers_of_clique() {
        // K5: every edge in 3 triangles, λ₃ = 3 for all.
        let g = complete(5);
        let p = peel(&EdgeSpace::new(&g));
        assert!(p.lambda.iter().all(|&l| l == 3));
    }

    #[test]
    fn nucleus34_of_clique() {
        // K6: every triangle in 3 K4s, λ₄ = 3 for all.
        let g = complete(6);
        let p = peel(&TriangleSpace::new(&g));
        assert!(p.lambda.iter().all(|&l| l == 3));
    }

    #[test]
    fn matches_reference_on_mixed_graph() {
        let g = crate::test_graphs::nested_cores();
        for_all_spaces_match(&g);
        let g = nucleus_graph::CsrGraph::from_edges(
            7,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 3),
                (5, 6),
            ],
        );
        for_all_spaces_match(&g);
    }

    fn for_all_spaces_match(g: &CsrGraph) {
        let vs = VertexSpace::new(g);
        assert_eq!(peel(&vs).lambda, peel_reference(&vs));
        let es = EdgeSpace::new(g);
        assert_eq!(peel(&es).lambda, peel_reference(&es));
        let ts = TriangleSpace::new(g);
        assert_eq!(peel(&ts).lambda, peel_reference(&ts));
    }

    #[test]
    fn lambda_histogram_sums_to_cells() {
        let g = complete(5);
        let p = peel(&VertexSpace::new(&g));
        assert_eq!(p.lambda_histogram().iter().sum::<usize>(), 5);
    }

    /// The serial loop without the ω₀ = 0 bypass: every cell goes
    /// through one all-cells bucket queue. The reference for [`peel`]
    /// and [`crate::algo::fnd::fnd`].
    fn all_cells_peel<B: PeelBackend>(space: &B) -> Peeling {
        let n = space.cell_count();
        let mut q = PeelBuckets::new(space.degrees());
        let mut lambda = vec![0u32; n];
        let mut order = Vec::with_capacity(n);
        let mut max_lambda = 0u32;
        while let Some((u, k)) = q.pop_min() {
            lambda[u as usize] = k;
            max_lambda = max_lambda.max(k);
            order.push(u);
            space.for_each_container(u, |others| {
                if others.iter().any(|&v| q.is_popped(v)) {
                    return;
                }
                for &v in others {
                    if q.key(v) > k {
                        q.decrement(v);
                    }
                }
            });
        }
        Peeling {
            lambda,
            max_lambda,
            order,
        }
    }

    /// Serial `peel` and `fnd`, over the lazy and the indexed backend,
    /// give the reference loop's λ and order (with the ω₀ = 0 cells
    /// leading it in ascending id) and the hierarchy DFT builds from
    /// it. Returns how many ω₀ = 0 cells the space has.
    fn check_bypass<S: crate::space::PeelSpace + Sync>(space: &S) -> usize {
        let reference = all_cells_peel(space);
        let (hierarchy, _) = crate::algo::dft::dft(space, &reference);
        let degrees = space.degrees();
        let zeros: Vec<u32> = (0..space.cell_count() as u32)
            .filter(|&c| degrees[c as usize] == 0)
            .collect();
        assert_eq!(&reference.order[..zeros.len()], &zeros[..]);
        let index = crate::space::ContainerIndex::build(space, 2);
        let indexed = crate::space::IndexedSpace::new(space, &index);
        fn check<S: crate::space::PeelSpace>(
            space: &S,
            reference: &Peeling,
            hierarchy: &crate::hierarchy::Hierarchy,
            backend: &str,
        ) {
            let fnd = crate::algo::fnd::fnd(space);
            for (name, p) in [("peel", &peel(space)), ("fnd", &fnd.peeling)] {
                assert_eq!(p.lambda, reference.lambda, "{backend} {name} λ");
                assert_eq!(p.order, reference.order, "{backend} {name} order");
                assert_eq!(p.max_lambda, reference.max_lambda, "{backend} {name}");
            }
            assert_eq!(&fnd.hierarchy, hierarchy, "{backend} fnd hierarchy");
        }
        check(space, &reference, &hierarchy, "lazy");
        check(&indexed, &reference, &hierarchy, "indexed");
        zeros.len()
    }

    #[test]
    fn serial_loops_bypass_containerless_cells() {
        // a star with one triangle among its first leaves, plus two
        // isolated vertices
        let mut edges: Vec<(u32, u32)> = (1..=8).map(|v| (0, v)).collect();
        edges.push((1, 2));
        let star = CsrGraph::from_edges(11, &edges);
        let graphs = [
            nucleus_gen::ba::barabasi_albert(2000, 3, 7),
            star,
            nucleus_gen::karate::karate_club(),
        ];
        let mut zeros = 0;
        for g in &graphs {
            zeros += check_bypass(&VertexSpace::new(g));
            zeros += check_bypass(&crate::space::VertexTriangleSpace::new(g));
            zeros += check_bypass(&EdgeSpace::new(g));
            zeros += check_bypass(&crate::space::EdgeK4Space::new(g));
            zeros += check_bypass(&TriangleSpace::new(g));
        }
        assert!(zeros > 1000, "the inputs must be rich in ω₀ = 0 cells");
    }

    /// The peeling the frontier engine produces under parallel FND.
    fn frontier_peel<S: crate::space::PeelSpace + Sync>(
        space: &S,
        options: FrontierOptions,
    ) -> Peeling {
        let fnd_options = crate::algo::fnd::FndOptions::default();
        crate::algo::fnd::fnd_parallel_with(space, fnd_options, options).peeling
    }

    /// The frontier engine at `threads` with the default hybrid policy.
    fn frontier_default(threads: usize) -> FrontierOptions {
        FrontierOptions {
            threads,
            ..FrontierOptions::default()
        }
    }

    /// λ from the frontier engine equals the serial loop's on every
    /// space, at several thread counts, with the spawn path forced —
    /// with the hybrid drain disabled, always-on, and on a mid-size
    /// threshold that mixes both per level.
    fn check_frontier_matches_serial(g: &CsrGraph) {
        let vs = VertexSpace::new(g);
        let es = EdgeSpace::new(g);
        let ts = TriangleSpace::new(g);
        fn check<S: crate::space::PeelSpace + Sync>(space: &S) {
            let serial = peel(space);
            let index = crate::space::ContainerIndex::build(space, 2);
            let m = crate::space::IndexedSpace::new(space, &index);
            for serial_round_threshold in [0, 3, usize::MAX] {
                for threads in [1, 2, 8] {
                    let opts = FrontierOptions {
                        threads,
                        min_parallel_work: 0,
                        serial_round_threshold,
                    };
                    let par = frontier_peel(space, opts);
                    assert_eq!(
                        par.lambda, serial.lambda,
                        "lazy backend, {threads} threads, drain < {serial_round_threshold}"
                    );
                    let par_m = frontier_peel(&m, opts);
                    assert_eq!(
                        par_m.lambda, serial.lambda,
                        "materialized, {threads} threads, drain < {serial_round_threshold}"
                    );
                    assert_eq!(par_m.max_lambda, serial.max_lambda);
                    // λ-monotone order covering every cell exactly once
                    let mut last = 0;
                    for &c in &par_m.order {
                        assert!(par_m.lambda_of(c) >= last);
                        last = par_m.lambda_of(c);
                    }
                    let mut seen = par_m.order.clone();
                    seen.sort_unstable();
                    assert_eq!(seen, (0..space.cell_count() as u32).collect::<Vec<_>>());
                    // deterministic across thread counts and backends
                    assert_eq!(par.order, par_m.order);
                }
            }
        }
        check(&vs);
        check(&es);
        check(&ts);
    }

    #[test]
    fn frontier_engine_matches_serial_on_clique_and_mixed() {
        check_frontier_matches_serial(&complete(7));
        check_frontier_matches_serial(&crate::test_graphs::nested_cores());
        check_frontier_matches_serial(&CsrGraph::from_edges(
            7,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 3),
                (5, 6),
            ],
        ));
    }

    #[test]
    fn frontier_engine_on_empty_and_isolated() {
        let g = CsrGraph::from_edges(0, &[]);
        let p = frontier_peel(&VertexSpace::new(&g), frontier_default(4));
        assert_eq!(p.cell_count(), 0);
        assert_eq!(p.max_lambda, 0);

        let g = CsrGraph::from_edges(4, &[(0, 1)]);
        let p = frontier_peel(&VertexSpace::new(&g), frontier_default(2));
        assert_eq!(p.lambda, vec![1, 1, 0, 0]);
        // isolated cells are emitted first (λ = 0 level precedes λ = 1)
        assert_eq!(&p.order[..2], &[2, 3]);
    }

    #[test]
    fn frontier_order_is_ascending_within_rounds() {
        // K5: one frontier containing everything, emitted in id order.
        let g = complete(5);
        let p = frontier_peel(&VertexSpace::new(&g), frontier_default(2));
        assert_eq!(p.order, vec![0, 1, 2, 3, 4]);
        assert!(p.lambda.iter().all(|&l| l == 4));
    }
}
