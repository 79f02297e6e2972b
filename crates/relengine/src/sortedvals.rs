//! Sorted integer value-sets: galloping membership and intersection.
//!
//! The executor's semi-join reduction and the cross-probe evaluation cache
//! both represent join-value sets as sorted, deduplicated `Vec<i64>` instead
//! of hash sets: construction is one sort over a scanned column, membership
//! is a binary search, and combining two sets is a galloping (exponential
//! search) intersection that costs `O(small · log(large/small))` — the same
//! representation either side of the cache boundary, so a cached
//! selection's [`ValuePostings`] plug straight into a running reduction.

/// First index `i >= lo` with `s[i] >= v`, or `s.len()` if none, found by
/// galloping (doubling steps) from `lo` followed by a binary search inside
/// the final gallop window. Fast when successive probes advance locally.
pub(crate) fn gallop_gte(s: &[i64], mut lo: usize, v: i64) -> usize {
    let mut step = 1usize;
    let mut hi = lo;
    while hi < s.len() && s[hi] < v {
        lo = hi + 1;
        hi += step;
        step <<= 1;
    }
    let hi = hi.min(s.len());
    lo + s[lo..hi].partition_point(|&x| x < v)
}

/// Whether sorted slice `s` contains `v` (binary search).
pub fn contains_sorted(s: &[i64], v: i64) -> bool {
    s.binary_search(&v).is_ok()
}

/// Intersection of two sorted, deduplicated slices, galloping through the
/// larger one. Returns a sorted, deduplicated vector.
pub fn intersect_sorted(a: &[i64], b: &[i64]) -> Vec<i64> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(small.len());
    let mut pos = 0usize;
    for &v in small {
        pos = gallop_gte(large, pos, v);
        if pos >= large.len() {
            break;
        }
        if large[pos] == v {
            out.push(v);
            pos += 1;
        }
    }
    out
}

/// Sorts and deduplicates a value list in place, returning it — the
/// normal-form constructor for the sets the functions above consume.
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
    fn gallop_finds_first_geq() {
        let s = [2, 4, 6, 8, 10, 12, 14];
        assert_eq!(gallop_gte(&s, 0, 1), 0);
        assert_eq!(gallop_gte(&s, 0, 2), 0);
        assert_eq!(gallop_gte(&s, 0, 5), 2);
        assert_eq!(gallop_gte(&s, 0, 14), 6);
        assert_eq!(gallop_gte(&s, 0, 15), 7);
        assert_eq!(gallop_gte(&s, 3, 9), 4);
        assert_eq!(gallop_gte(&s, 7, 1), 7);
        assert_eq!(gallop_gte(&[], 0, 0), 0);
    }

    #[test]
    fn membership() {
        let s = [1, 3, 5];
        assert!(contains_sorted(&s, 1));
        assert!(contains_sorted(&s, 5));
        assert!(!contains_sorted(&s, 2));
        assert!(!contains_sorted(&[], 0));
    }

    #[test]
    fn intersection_matches_naive() {
        let cases: &[(&[i64], &[i64], &[i64])] = &[
            (&[], &[1, 2], &[]),
            (&[1, 2, 3], &[2, 3, 4], &[2, 3]),
            (&[1, 5, 9], &[2, 6, 10], &[]),
            (&[1, 2, 3], &[1, 2, 3], &[1, 2, 3]),
            (&[7], &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], &[7]),
            (&[-3, 0, 3], &[-5, -3, 3, 8], &[-3, 3]),
        ];
        for (a, b, want) in cases {
            assert_eq!(intersect_sorted(a, b), *want);
            assert_eq!(intersect_sorted(b, a), *want);
        }
    }

    #[test]
    fn normalize_sorts_and_dedups() {
        assert_eq!(normalize(vec![5, 1, 5, 3, 1]), vec![1, 3, 5]);
        assert_eq!(normalize(vec![]), Vec::<i64>::new());
    }
}
