//! Fixed-arity flat record storage: a CSR layout without graph
//! semantics.
//!
//! [`FlatRecords`] maps each *cell* (a dense `u32` id) to a run of
//! fixed-width `u32` records, all stored in one contiguous buffer. It is
//! the storage layer of the materialized peeling backend in
//! `nucleus-core` (each record holds the co-cell ids of one container),
//! but it is deliberately generic: any "cell → small fixed-width tuples"
//! mapping fits.
//!
//! Offsets are kept in *record* units; the data index of cell `c`'s
//! `j`-th record is `(offsets[c] + j) * arity`.
//!
//! A store built in memory and one decoded from a persisted index
//! ([`crate::persist_io`]) are the same type, and both are checked by
//! [`FlatRecords::try_from_parts`], the one validator of the layout.

use crate::error::GraphError;

/// Exclusive prefix sum of `counts`, in record units: `out[c]` is the
/// first record index of cell `c` and `out[counts.len()]` the total.
pub fn offsets_from_counts(counts: &[u32]) -> Vec<usize> {
    let mut offsets = vec![0usize; counts.len() + 1];
    for (i, &c) in counts.iter().enumerate() {
        offsets[i + 1] = offsets[i] + c as usize;
    }
    offsets
}

/// Immutable fixed-arity record store in CSR form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatRecords {
    arity: usize,
    /// Per-cell record offsets (record units, length `cells + 1`).
    offsets: Vec<usize>,
    /// All records back to back: `record_count() * arity` words.
    data: Vec<u32>,
}

impl FlatRecords {
    /// Assembles a store from raw parts. `offsets` must be a valid
    /// prefix-sum array (see [`offsets_from_counts`]) and `data` must
    /// hold exactly `offsets.last() * arity` words.
    ///
    /// # Panics
    /// If the invariants above do not hold (`arity` of zero, empty or
    /// non-monotone offsets, or a mis-sized data buffer). Loaders of
    /// untrusted bytes must use [`FlatRecords::try_from_parts`] instead.
    pub fn from_parts(offsets: Vec<usize>, data: Vec<u32>, arity: usize) -> Self {
        match Self::try_from_parts(offsets, data, arity) {
            Ok(flat) => flat,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`FlatRecords::from_parts`]: returns
    /// [`GraphError::Records`] instead of panicking when the invariants
    /// do not hold, including full (not debug-only) monotonicity of the
    /// offsets — the constructor the persisted-index loader funnels
    /// untrusted bytes through.
    pub fn try_from_parts(
        offsets: Vec<usize>,
        data: Vec<u32>,
        arity: usize,
    ) -> Result<Self, GraphError> {
        if arity == 0 {
            return Err(GraphError::Records("arity must be positive".into()));
        }
        if offsets.is_empty() {
            return Err(GraphError::Records(
                "offsets needs a leading 0 entry".into(),
            ));
        }
        if offsets[0] != 0 {
            return Err(GraphError::Records("offsets must start at 0".into()));
        }
        if let Some(i) = (1..offsets.len()).find(|&i| offsets[i - 1] > offsets[i]) {
            return Err(GraphError::Records(format!(
                "offsets must be monotone (offsets[{}] = {} > offsets[{}] = {})",
                i - 1,
                offsets[i - 1],
                i,
                offsets[i]
            )));
        }
        let records = offsets[offsets.len() - 1];
        let expected = records
            .checked_mul(arity)
            .ok_or_else(|| GraphError::Records("record_count * arity overflows".into()))?;
        if data.len() != expected {
            return Err(GraphError::Records(format!(
                "data length must be record_count * arity ({} records × {arity} ≠ {} words)",
                records,
                data.len()
            )));
        }
        Ok(FlatRecords {
            arity,
            offsets,
            data,
        })
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Words per record.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Total number of records across all cells.
    pub fn record_count(&self) -> usize {
        self.offsets[self.offsets.len() - 1]
    }

    /// `true` when no cell has any record.
    pub fn is_empty(&self) -> bool {
        self.record_count() == 0
    }

    /// Number of records of `cell`.
    #[inline]
    pub fn count(&self, cell: u32) -> u32 {
        (self.offsets[cell as usize + 1] - self.offsets[cell as usize]) as u32
    }

    /// Per-cell record counts (the inverse of [`offsets_from_counts`]).
    pub fn counts(&self) -> Vec<u32> {
        (0..self.cells() as u32).map(|c| self.count(c)).collect()
    }

    /// All records of `cell` as one flat slice of
    /// `count(cell) * arity` words.
    #[inline]
    pub fn slice_of(&self, cell: u32) -> &[u32] {
        let lo = self.offsets[cell as usize] * self.arity;
        let hi = self.offsets[cell as usize + 1] * self.arity;
        &self.data[lo..hi]
    }

    /// Iterates the records of `cell`, one `arity`-sized slice each.
    #[inline]
    pub fn records_of(&self, cell: u32) -> impl Iterator<Item = &[u32]> {
        self.slice_of(cell).chunks_exact(self.arity)
    }

    /// Heap footprint of the store in bytes.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<u32>()
            + self.offsets.len() * std::mem::size_of::<usize>()
    }

    /// Raw record words, `record_count() * arity` long. Exposed for
    /// serializers, which store [`FlatRecords::counts`] beside it:
    /// [`FlatRecords::try_from_parts`] rebuilds the store from the two,
    /// through [`offsets_from_counts`].
    pub fn data(&self) -> &[u32] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FlatRecords {
        // 3 cells with 2, 0, 1 records of arity 2
        let offsets = offsets_from_counts(&[2, 0, 1]);
        FlatRecords::from_parts(offsets, vec![10, 11, 20, 21, 30, 31], 2)
    }

    #[test]
    fn offsets_prefix_sum() {
        assert_eq!(offsets_from_counts(&[2, 0, 1]), vec![0, 2, 2, 3]);
        assert_eq!(offsets_from_counts(&[]), vec![0]);
    }

    #[test]
    fn shape_and_counts() {
        let f = sample();
        assert_eq!(f.cells(), 3);
        assert_eq!(f.arity(), 2);
        assert_eq!(f.record_count(), 3);
        assert!(!f.is_empty());
        assert_eq!(f.count(0), 2);
        assert_eq!(f.count(1), 0);
        assert_eq!(f.count(2), 1);
        assert_eq!(f.counts(), vec![2, 0, 1]);
    }

    #[test]
    fn record_access() {
        let f = sample();
        assert_eq!(f.slice_of(0), &[10, 11, 20, 21]);
        assert_eq!(f.slice_of(1), &[] as &[u32]);
        let recs: Vec<&[u32]> = f.records_of(0).collect();
        assert_eq!(recs, vec![&[10, 11][..], &[20, 21][..]]);
        assert_eq!(f.records_of(2).next(), Some(&[30, 31][..]));
    }

    #[test]
    fn bytes_counts_both_buffers() {
        let f = sample();
        assert_eq!(
            f.bytes(),
            6 * std::mem::size_of::<u32>() + 4 * std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn empty_store() {
        let f = FlatRecords::from_parts(vec![0], vec![], 3);
        assert_eq!(f.cells(), 0);
        assert!(f.is_empty());
        assert_eq!(f.counts(), Vec::<u32>::new());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn zero_arity_rejected() {
        FlatRecords::from_parts(vec![0], vec![], 0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn mis_sized_data_rejected() {
        FlatRecords::from_parts(vec![0, 1], vec![1, 2, 3], 2);
    }

    #[test]
    fn try_from_parts_catches_every_invariant() {
        assert!(FlatRecords::try_from_parts(vec![0], vec![], 0).is_err());
        assert!(FlatRecords::try_from_parts(vec![], vec![], 2).is_err());
        assert!(FlatRecords::try_from_parts(vec![1, 2], vec![1, 2, 3, 4], 2).is_err());
        // Non-monotone offsets are rejected even in release builds.
        assert!(FlatRecords::try_from_parts(vec![0, 2, 1], vec![1, 2], 1).is_err());
        assert!(FlatRecords::try_from_parts(vec![0, 1], vec![1], 2).is_err());
        let ok = FlatRecords::try_from_parts(vec![0, 2], vec![1, 2, 3, 4], 2).unwrap();
        assert_eq!(ok.record_count(), 2);
    }

    #[test]
    fn raw_accessors_round_trip() {
        let f = sample();
        let offsets = offsets_from_counts(&f.counts());
        let f2 = FlatRecords::try_from_parts(offsets, f.data().to_vec(), f.arity()).unwrap();
        assert_eq!(f, f2);
    }
}
