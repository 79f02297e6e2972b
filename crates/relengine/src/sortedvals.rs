//! Sorted integer value-sets.
//!
//! The executor and the cross-probe evaluation cache represent join-value
//! sets as sorted, deduplicated `Vec<i64>` instead of hash sets:
//! construction is one sort over a scanned column and membership is a binary
//! search. A cached selection's [`ValuePostings`] groups its rows by join
//! value in that same order, so the executor can walk values and rows for a
//! value without re-reading a single row.

/// Sorts and deduplicates a value list in place, returning it — the
/// normal form of every value-set in this module.
pub fn normalize(mut values: Vec<i64>) -> Vec<i64> {
    values.sort_unstable();
    values.dedup();
    values
}

/// A row set grouped by its values in one column: CSR-style postings with
/// sorted distinct values, per-value offsets and ascending row ids per
/// value. The session cache stores one per (selection, join column) so a
/// probe can answer both "which values does this selection offer?"
/// ([`ValuePostings::values`]) and "which of its rows carry value v?"
/// ([`ValuePostings::rows_for`]) without re-reading a single row. Rows with
/// a NULL in the column are absent, matching every other value-set in this
/// module.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValuePostings {
    values: Vec<i64>,
    /// `offsets[i]..offsets[i + 1]` indexes `rows` for `values[i]`.
    offsets: Vec<u32>,
    rows: Vec<crate::RowId>,
}

impl ValuePostings {
    /// Builds postings from `(value, row)` pairs (any order, rows unique).
    pub fn build(mut pairs: Vec<(i64, crate::RowId)>) -> ValuePostings {
        pairs.sort_unstable();
        let mut values = Vec::new();
        let mut offsets = Vec::new();
        let mut rows = Vec::with_capacity(pairs.len());
        for (v, rid) in pairs {
            if values.last() != Some(&v) {
                values.push(v);
                offsets.push(rows.len() as u32);
            }
            rows.push(rid);
        }
        offsets.push(rows.len() as u32);
        ValuePostings { values, offsets, rows }
    }

    /// The sorted distinct values present in the column.
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// The ascending rows carrying the value at index `idx` of
    /// [`ValuePostings::values`].
    pub fn rows_at(&self, idx: usize) -> &[crate::RowId] {
        &self.rows[self.offsets[idx] as usize..self.offsets[idx + 1] as usize]
    }

    /// The ascending rows carrying value `v` (empty when absent).
    pub fn rows_for(&self, v: i64) -> &[crate::RowId] {
        match self.values.binary_search(&v) {
            Ok(idx) => self.rows_at(idx),
            Err(_) => &[],
        }
    }

    /// Approximate resident payload bytes (for cache accounting).
    pub fn payload_bytes(&self) -> u64 {
        (std::mem::size_of_val(self.values.as_slice())
            + std::mem::size_of_val(self.offsets.as_slice())
            + std::mem::size_of_val(self.rows.as_slice())) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_sorts_and_dedups() {
        assert_eq!(normalize(vec![5, 1, 5, 3, 1]), vec![1, 3, 5]);
        assert_eq!(normalize(vec![]), Vec::<i64>::new());
    }
}
