//! Bucket queues used by the peeling and LCPS algorithms.
//!
//! Two variants are needed:
//!
//! * [`PeelBuckets`] — the Batagelj–Zaversnik array layout (`bin`, `pos`,
//!   `vert`) that the peeling phase (Alg. 1 of the paper) relies on, with
//!   each element's key and position in one slot. It supports `pop_min`
//!   with a monotone cursor and O(1) `decrement`, giving the classic
//!   O(n + m) k-core peeling bound.
//! * [`MaxBuckets`] — a max-priority bucket queue with a movable cursor,
//!   which is exactly the "bucket data structure" the paper plugs into
//!   Matula & Beck's LCPS to make its priority queue maintainable (§5.1).

use std::sync::Arc;

/// Min-bucket structure over integer keys, specialized for peeling:
/// keys only ever *decrease by one at a time*, and never below the key of
/// the most recently popped element.
///
/// # One slot per element
///
/// Every element owns one `[u32; 2]` slot for its whole life. While it
/// is queued, the slot holds its current key and its index in `vert`, so
/// a decrement reads and writes one slot. Popping fixes the key (the
/// element's λ in a peel) and frees the second word, which from then on
/// holds a tag the caller sets ([`PeelBuckets::set_tag`]; FND stores the
/// cell's sub-nucleus there). So a lookup of a popped element's key and
/// tag reads one slot too, and [`PeelBuckets::into_keys`] hands back the
/// λ of a finished peel.
///
/// # Laziness invariant
///
/// `bin[d]` is kept **exact only for buckets above the floor** (the key
/// of the most recently popped element). Pops consume the minimum
/// bucket, so they can only make the starts of buckets *at or below*
/// the floor stale — and [`PeelBuckets::decrement`] may only touch
/// elements with `key > floor`, so those stale entries are never read
/// again. This is what lets `pop_min` run in O(1) instead of rewriting
/// every bucket start `≤ k + 1` on each pop.
#[derive(Clone, Debug)]
pub struct PeelBuckets {
    /// `bin[d]` = first index in `vert` of the (unpopped part of the)
    /// bucket with key `d`. Length `max_key + 2`. Exact for `d > floor`;
    /// entries for drained buckets go stale and are never read (see the
    /// laziness invariant above).
    bin: Vec<u32>,
    /// `slot[x]` = `[key, pos]` while `x` is queued (`pos` = its index
    /// in `vert`), `[key, tag]` once it is popped; `[0, _]` for a zero
    /// key [`PeelBuckets::skipping_zeros`] left out of the queue.
    slot: Vec<[u32; 2]>,
    /// Queued elements sorted by current key; `vert[cursor..]` are
    /// unpopped.
    vert: Vec<u32>,
    /// Popped-element bitmap (one bit per element): the slot's second
    /// word cannot tell a position from a tag, and the bitmap is 64×
    /// denser than the slots, so the peeling loop's dead-container
    /// scans stay in cache on large inputs.
    popped: Vec<u64>,
    cursor: u32,
    /// Key of the most recently popped element (monotone non-decreasing).
    floor: u32,
}

/// Index of the key in a slot.
const KEY: usize = 0;
/// Index of the queue position (while queued) or the tag (once popped).
const POS_OR_TAG: usize = 1;

impl PeelBuckets {
    /// Builds the structure from initial keys (one per element `0..n`).
    pub fn new(mut keys: Vec<u32>) -> Self {
        Self::over(&mut keys, false)
    }

    /// Builds the structure over the elements with a nonzero key only.
    /// Beside it come the zero-key elements in ascending order, the order
    /// [`PeelBuckets::new`] would pop them in first, in the buffer `keys`
    /// came in: it has room for all `n` elements, so the serial peeling
    /// loops keep it as their peeling order. Peeling gives such an
    /// element λ = 0 and it decrements nothing; everything else pops
    /// exactly as from `new`. A zero-key element is never popped:
    /// [`PeelBuckets::is_popped`] stays `false` for it, and
    /// [`PeelBuckets::len`] does not count it.
    pub fn skipping_zeros(mut keys: Vec<u32>) -> (Self, Vec<u32>) {
        let q = Self::over(&mut keys, true);
        (q, keys)
    }

    /// Counting-sorts the queued elements (ascending ids) into `vert` by
    /// key: all of them, or with `skip_zeros` those with a nonzero key,
    /// the others being compacted in ascending order to the front of
    /// `keys` (the i-th of them sits at an index ≥ i), which is then cut
    /// to them. The keys are filtered twice, once to count and once to
    /// place, so no member list is held beside the slots. The slots start
    /// zeroed, the slot of a zero key left out.
    fn over(keys: &mut Vec<u32>, skip_zeros: bool) -> Self {
        let n = keys.len();
        assert!(n < u32::MAX as usize, "at most u32::MAX - 1 elements");
        let queued = |k: u32| k != 0 || !skip_zeros;
        let max_key = keys.iter().copied().max().unwrap_or(0) as usize;
        let mut bin = vec![0u32; max_key + 2];
        for &k in keys.iter().filter(|&&k| queued(k)) {
            bin[k as usize + 1] += 1;
        }
        for d in 1..bin.len() {
            bin[d] += bin[d - 1];
        }
        let mut slot = vec![[0u32; 2]; n];
        let mut vert = vec![0u32; bin[max_key + 1] as usize];
        let mut next = bin.clone();
        let mut zeros = 0;
        for x in 0..n {
            let k = keys[x];
            if queued(k) {
                let p = &mut next[k as usize];
                vert[*p as usize] = x as u32;
                slot[x] = [k, *p];
                *p += 1;
            } else {
                keys[zeros] = x as u32;
                zeros += 1;
            }
        }
        keys.truncate(zeros);
        PeelBuckets {
            bin,
            slot,
            vert,
            popped: vec![0u64; n.div_ceil(64)],
            cursor: 0,
            floor: 0,
        }
    }

    /// Number of queued elements (popped or not).
    pub fn len(&self) -> usize {
        self.vert.len()
    }

    /// True when every queued element has been popped.
    pub fn is_empty(&self) -> bool {
        self.cursor as usize >= self.vert.len()
    }

    /// Current key of element `x`; once `x` is popped, the key it was
    /// popped with.
    #[inline]
    pub fn key(&self, x: u32) -> u32 {
        self.slot[x as usize][KEY]
    }

    /// Whether `x` has already been popped.
    #[inline]
    pub fn is_popped(&self, x: u32) -> bool {
        self.popped[x as usize / 64] >> (x % 64) & 1 == 1
    }

    /// The tag of a popped element, as last set by
    /// [`PeelBuckets::set_tag`]; unspecified before the first
    /// `set_tag`. It shares `x`'s slot with [`PeelBuckets::key`], so
    /// reading both touches one slot.
    #[inline]
    pub fn tag(&self, x: u32) -> u32 {
        debug_assert!(self.is_popped(x), "tag of unpopped element {x}");
        self.slot[x as usize][POS_OR_TAG]
    }

    /// Tags a popped element: the word of its slot that held its queue
    /// position while it was queued. Pops and decrements of other
    /// elements never touch it.
    #[inline]
    pub fn set_tag(&mut self, x: u32, tag: u32) {
        debug_assert!(self.is_popped(x), "set_tag of unpopped element {x}");
        self.slot[x as usize][POS_OR_TAG] = tag;
    }

    /// The key of every element, in one shared buffer of `n` words (the
    /// slots, twice that, are freed): once every queued element has been
    /// popped, the key each was popped with (its λ in a peel), and 0 for
    /// the zero keys [`PeelBuckets::skipping_zeros`] left out. The
    /// buffer is allocated once and filled in one pass over the slots,
    /// so a peeling and the hierarchy built from it can share it.
    pub fn into_keys(self) -> Arc<[u32]> {
        self.slot.iter().map(|s| s[KEY]).collect()
    }

    /// Pops an element with the minimum current key.
    ///
    /// Returns `(element, key)`. Keys returned by successive pops are
    /// non-decreasing — this is the monotonicity the peeling process
    /// guarantees and the hierarchy algorithms exploit.
    pub fn pop_min(&mut self) -> Option<(u32, u32)> {
        if self.is_empty() {
            return None;
        }
        let x = self.vert[self.cursor as usize];
        let k = self.slot[x as usize][KEY];
        debug_assert!(
            k >= self.floor,
            "bucket keys regressed: {k} < {}",
            self.floor
        );
        self.floor = k;
        // Deliberately no `bin` maintenance here: the pop only stales
        // the starts of buckets ≤ k, which `decrement` (guarded by
        // `key > floor = k`) can never read. Rewriting every bucket
        // start ≤ k + 1 on each pop — the eager alternative — costs
        // O(max_key) per pop and made peeling quadratic on inputs with
        // a long ladder of distinct keys.
        self.popped[x as usize / 64] |= 1 << (x % 64);
        self.cursor += 1;
        Some((x, k))
    }

    /// Decrements the key of an unpopped element by one.
    ///
    /// Must only be called when `key(x)` is strictly greater than the key
    /// of the last element popped (the peeling guard `ω(v) > ω(u)`), which
    /// keeps the layout valid.
    #[inline]
    pub fn decrement(&mut self, x: u32) {
        let xi = x as usize;
        let [d, p] = self.slot[xi];
        debug_assert!(!self.is_popped(x), "decrement of popped element {x}");
        debug_assert!(
            d > self.floor,
            "decrement would drop key below peeling floor"
        );
        // `key[x] > floor` means bucket `d` is above the floor, where
        // `bin` is exact (see the laziness invariant on the struct); the
        // clamp is defensive normalization for the cursor boundary only.
        let start = self.bin[d as usize].max(self.cursor);
        let w = self.vert[start as usize];
        debug_assert_eq!(self.slot[w as usize][KEY], d);
        if w != x {
            self.vert[p as usize] = w;
            self.vert[start as usize] = x;
            self.slot[w as usize][POS_OR_TAG] = p;
        }
        self.bin[d as usize] = start + 1;
        self.slot[xi] = [d - 1, start];
    }
}

/// Max-priority bucket queue for the LCPS traversal: elements are pushed
/// with a fixed priority and popped highest-first. `O(1)` push; pops cost
/// amortized `O(1)` plus cursor movement bounded by total priority drift.
#[derive(Clone, Debug)]
pub struct MaxBuckets {
    buckets: Vec<Vec<u32>>,
    cur_max: usize,
    len: usize,
}

impl MaxBuckets {
    /// Queue accepting priorities `0..=max_priority`.
    ///
    /// `max_priority` is a hard capacity invariant: [`MaxBuckets::push`]
    /// saturates any larger priority to `max_priority` (checked in
    /// release builds too, not just a `debug_assert`), so a queue built
    /// with `MaxBuckets::new(0)` degenerates to a stack of priority-0
    /// elements rather than indexing out of bounds.
    pub fn new(max_priority: u32) -> Self {
        MaxBuckets {
            buckets: vec![Vec::new(); max_priority as usize + 1],
            cur_max: 0,
            len: 0,
        }
    }

    /// Number of queued elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no element is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes `x` with priority `p`.
    ///
    /// Priorities above the `max_priority` the queue was built with are
    /// clamped to `max_priority` — the saturating release-mode
    /// enforcement of the capacity invariant, identical in debug and
    /// release so behavior never diverges between the two (callers that
    /// consider an out-of-range priority a logic error should validate
    /// before pushing).
    #[inline]
    pub fn push(&mut self, x: u32, p: u32) {
        let p = (p as usize).min(self.buckets.len() - 1);
        self.buckets[p].push(x);
        if p > self.cur_max {
            self.cur_max = p;
        }
        self.len += 1;
    }

    /// Pops an element with the maximum priority, returning `(x, p)`.
    pub fn pop_max(&mut self) -> Option<(u32, u32)> {
        if self.len == 0 {
            return None;
        }
        while self.buckets[self.cur_max].is_empty() {
            // len > 0 guarantees a non-empty bucket below.
            self.cur_max -= 1;
        }
        let x = self.buckets[self.cur_max].pop().expect("non-empty bucket");
        self.len -= 1;
        Some((x, self.cur_max as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peel_pop_order_is_monotone() {
        let mut q = PeelBuckets::new(vec![3, 1, 4, 1, 5, 9, 2, 6]);
        let mut last = 0;
        let mut seen = vec![];
        while let Some((x, k)) = q.pop_min() {
            assert!(k >= last);
            last = k;
            seen.push(x);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn peel_decrement_moves_element_earlier() {
        // keys: a=0 b=2 c=2
        let mut q = PeelBuckets::new(vec![0, 2, 2]);
        let (x, k) = q.pop_min().unwrap();
        assert_eq!((x, k), (0, 0));
        q.decrement(1); // b: 2 -> 1
        let (x, k) = q.pop_min().unwrap();
        assert_eq!((x, k), (1, 1));
        let (x, k) = q.pop_min().unwrap();
        assert_eq!((x, k), (2, 2));
        assert!(q.pop_min().is_none());
    }

    #[test]
    fn peel_simulates_kcore_peeling() {
        // Degrees of a path 0-1-2-3: [1,2,2,1]; peeling yields all core 1.
        let mut q = PeelBuckets::new(vec![1, 2, 2, 1]);
        let adj: Vec<Vec<u32>> = vec![vec![1], vec![0, 2], vec![1, 3], vec![2]];
        let mut lambda = vec![0u32; 4];
        while let Some((u, k)) = q.pop_min() {
            lambda[u as usize] = k;
            for &v in &adj[u as usize] {
                if !q.is_popped(v) && q.key(v) > k {
                    q.decrement(v);
                }
            }
        }
        assert_eq!(lambda, vec![1, 1, 1, 1]);
    }

    #[test]
    fn peel_all_equal_keys() {
        let mut q = PeelBuckets::new(vec![7; 5]);
        for _ in 0..5 {
            let (_, k) = q.pop_min().unwrap();
            assert_eq!(k, 7);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn peel_empty() {
        let mut q = PeelBuckets::new(vec![]);
        assert!(q.pop_min().is_none());
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    /// Regression test for the O(max_key) `bin` rewrite `pop_min` used
    /// to perform: keys form one long ladder (0, 1, 2, …), so the old
    /// eager normalization rewrote `k + 2` bucket starts on the k-th
    /// pop — O(n²) total, minutes at this size. The lazy scheme pops
    /// the whole ladder in O(n).
    #[test]
    fn peel_large_max_key_ladder_is_linear() {
        let n: u32 = 200_000;
        let mut q = PeelBuckets::new((0..n).collect());
        // Interleave decrements so stale-looking bucket starts are
        // exercised, not just straight pops: before popping element i,
        // pull i + 1 down by one (from i + 1 to i, entering the bucket
        // currently being drained).
        let mut popped = 0u32;
        let mut last = 0u32;
        while let Some((x, k)) = q.pop_min() {
            assert!(k >= last, "monotone pops");
            last = k;
            popped += 1;
            let next = x + 1;
            if next < n && !q.is_popped(next) && q.key(next) > k {
                q.decrement(next);
            }
        }
        assert_eq!(popped, n);
        // every second element was decremented once: λ ladder collapses
        assert_eq!(last, n - 1 - 1); // final key: n-1 decremented once
    }

    /// Randomized cross-check of the lazy `bin` maintenance against a
    /// naive priority simulation: arbitrary valid interleavings of
    /// `pop_min` and `decrement` (respecting the `key > floor` guard)
    /// must pop identical key sequences.
    #[test]
    fn peel_lazy_bins_match_naive_simulation() {
        // Tiny deterministic LCG so no RNG dependency is needed here.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for trial in 0..50 {
            let n = 3 + (rng() % 40) as usize;
            let keys: Vec<u32> = (0..n).map(|_| rng() % 12).collect();
            let mut q = PeelBuckets::new(keys.clone());
            let mut naive: Vec<Option<u32>> = keys.iter().copied().map(Some).collect();
            let mut floor = 0u32;
            for _ in 0..n {
                // a few random valid decrements between pops
                for _ in 0..(rng() % 4) {
                    let x = rng() % n as u32;
                    if !q.is_popped(x) && q.key(x) > floor {
                        q.decrement(x);
                        *naive[x as usize].as_mut().unwrap() -= 1;
                    }
                }
                let (x, k) = q.pop_min().expect("element left");
                floor = k;
                let min_naive = naive.iter().flatten().min().copied().unwrap();
                assert_eq!(k, min_naive, "trial {trial}: popped key vs naive min");
                assert_eq!(naive[x as usize], Some(k), "trial {trial}: popped key");
                naive[x as usize] = None;
                assert!(q.is_popped(x));
            }
            assert!(q.pop_min().is_none());
        }
    }

    /// `skipping_zeros` hands back the zero keys in ascending order,
    /// then pops exactly what `new` pops after them under the same
    /// decrements.
    #[test]
    fn skipping_zeros_pops_like_new_after_the_zeros() {
        let keys = vec![2, 0, 3, 1, 0, 2, 0, 4];
        let (mut skip, zeros) = PeelBuckets::skipping_zeros(keys.clone());
        assert_eq!(zeros, [1, 4, 6]);
        assert_eq!(skip.len(), 5);
        let mut all = PeelBuckets::new(keys);
        for &z in &zeros {
            assert_eq!(all.pop_min(), Some((z, 0)));
        }
        loop {
            let popped = all.pop_min();
            assert_eq!(skip.pop_min(), popped);
            let Some((_, k)) = popped else { break };
            for x in [0, 2, 7] {
                if !all.is_popped(x) && all.key(x) > k {
                    all.decrement(x);
                    skip.decrement(x);
                }
            }
        }
        assert!(skip.is_empty());
        assert!(zeros.iter().all(|&z| !skip.is_popped(z)));
    }

    /// A tag set on a popped element stays through later pops and
    /// through the decrements that reorder the elements still queued.
    #[test]
    fn tags_survive_later_pops_and_decrements() {
        let mut q = PeelBuckets::new(vec![1, 3, 3, 3, 2]);
        let (x, k) = q.pop_min().unwrap();
        assert_eq!((x, k), (0, 1));
        q.set_tag(0, 77);
        // 4 (key 2) pops next; both decrements then swap inside the
        // key-3 bucket
        assert_eq!(q.pop_min(), Some((4, 2)));
        q.set_tag(4, 5);
        for x in [3, 1] {
            q.decrement(x);
        }
        assert_eq!((q.tag(0), q.key(0)), (77, 1));
        assert_eq!((q.tag(4), q.key(4)), (5, 2));
        while let Some((x, _)) = q.pop_min() {
            q.set_tag(x, 100 + x);
        }
        assert_eq!((q.tag(0), q.tag(4)), (77, 5));
        assert_eq!([q.tag(1), q.tag(2), q.tag(3)], [101, 102, 103]);
    }

    /// `into_keys` is the key each element was popped with, and 0 for
    /// the zero keys `skipping_zeros` never queued.
    #[test]
    fn into_keys_are_the_pop_keys() {
        let keys = vec![2, 0, 3, 1, 0, 2, 0, 4];
        let (mut q, zeros) = PeelBuckets::skipping_zeros(keys.clone());
        let mut want = vec![0u32; keys.len()];
        while let Some((x, k)) = q.pop_min() {
            want[x as usize] = k;
            for y in [0, 2, 7] {
                if !q.is_popped(y) && q.key(y) > k {
                    q.decrement(y);
                }
            }
        }
        assert!(zeros.iter().all(|&z| want[z as usize] == 0));
        let lambda = q.into_keys();
        assert_eq!(*lambda, want[..]);
        assert_eq!(*lambda, [1, 0, 1, 1, 0, 2, 0, 1]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "tag of unpopped element 1")]
    fn tag_of_an_unpopped_element_panics_in_debug() {
        let mut q = PeelBuckets::new(vec![1, 2]);
        q.pop_min();
        q.tag(1);
    }

    #[test]
    fn max_buckets_pop_highest_first() {
        let mut q = MaxBuckets::new(10);
        q.push(1, 3);
        q.push(2, 7);
        q.push(3, 7);
        q.push(4, 0);
        let (x, p) = q.pop_max().unwrap();
        assert_eq!(p, 7);
        assert!(x == 2 || x == 3);
        q.push(5, 9); // priority can rise above the current max
        assert_eq!(q.pop_max().unwrap(), (5, 9));
        let (_, p) = q.pop_max().unwrap();
        assert_eq!(p, 7);
        assert_eq!(q.pop_max().unwrap(), (1, 3));
        assert_eq!(q.pop_max().unwrap(), (4, 0));
        assert!(q.pop_max().is_none());
    }

    /// The capacity invariant of `MaxBuckets::new` holds in release
    /// builds: out-of-range priorities saturate to `max_priority`
    /// instead of indexing out of bounds.
    #[test]
    fn max_buckets_priority_saturates_at_capacity() {
        // the degenerate queue: everything clamps to priority 0
        let mut q = MaxBuckets::new(0);
        q.push(7, 5);
        q.push(8, u32::MAX);
        q.push(9, 0);
        assert_eq!(q.len(), 3);
        let mut popped = vec![];
        while let Some((x, p)) = q.pop_max() {
            assert_eq!(p, 0);
            popped.push(x);
        }
        popped.sort_unstable();
        assert_eq!(popped, vec![7, 8, 9]);

        // clamped pushes land in the top bucket and pop first
        let mut q = MaxBuckets::new(2);
        q.push(1, 1);
        q.push(2, 99); // clamps to 2
        assert_eq!(q.pop_max().unwrap(), (2, 2));
        assert_eq!(q.pop_max().unwrap(), (1, 1));
    }

    #[test]
    fn max_buckets_len_tracking() {
        let mut q = MaxBuckets::new(2);
        assert!(q.is_empty());
        q.push(0, 1);
        q.push(1, 1);
        assert_eq!(q.len(), 2);
        q.pop_max();
        assert_eq!(q.len(), 1);
    }
}
