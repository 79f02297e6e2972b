//! Row storage, tombstones, and per-column hash indexes.
//!
//! Row ids are positional and **stable for the lifetime of the table**:
//! deletion tombstones a row instead of removing it, so ids handed out to
//! indexes, postings, and caches never shift. Equality indexes are
//! maintained incrementally by [`Table::insert`], [`Table::update`], and
//! [`Table::delete`] — a write never drops an index wholesale.
//!
//! ## Index hashing
//!
//! Every join-index lookup hashes one `i64` column value, and probes do
//! several per semi-join and per enumeration step, so the index maps use a
//! fixed multiply-and-fold hasher ([`IntHasher`]) instead of the keyed
//! SipHash default. It folds the key's 32-bit halves and then its 16-bit
//! quarters onto the low bits before one odd multiply, so high key bits
//! reach the low bits hashbrown picks buckets with, and dense keys (row ids,
//! sequential primary keys) spread without collisions. The multiply only
//! carries bits upward, so keys whose folded values agree in the bucket
//! bits still share a bucket — for example multiples of 1,024 below 65,536
//! in a 1,024-bucket table; join values here are ids, not such strides.
//! The hasher is unkeyed: a caller who picks the stored values can pick
//! colliding ones. That is acceptable only because every indexed value is
//! stored column data written through the library API — no network client
//! supplies keys today. Accepting writes from remote clients must revisit
//! this choice (for example by salting the fold with a per-process random
//! key).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::error::EngineError;
use crate::schema::{ColId, TableSchema};
use crate::value::{DataType, Value};

/// Row identifier: position of the row within its table.
pub type RowId = u32;

/// A stored row. Values are in schema column order.
pub type Row = Box<[Value]>;

/// A std-only hasher for integer keys: folds the key onto its low bits,
/// then multiplies by an odd constant (see the module docs for why it is
/// unkeyed). Only `i64`/`u64` keys are hashed on the hot path; other writes
/// fold byte by byte.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IntHasher(u64);

/// 2^64 / φ, odd: the Fibonacci-hashing multiplier.
const FOLD_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        let v = v ^ (v >> 32);
        self.0 = (v ^ (v >> 16)).wrapping_mul(FOLD_MUL);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// An `i64`-keyed map hashed by [`IntHasher`]: the join indexes and the
/// executor's per-probe `value → rows` fallback.
pub(crate) type IntMap<V> = HashMap<i64, V, BuildHasherDefault<IntHasher>>;

/// One table: schema, rows, and lazily built equality indexes on integer
/// columns (used to execute the key/foreign-key joins).
#[derive(Debug, Clone)]
pub struct Table {
    pub(crate) schema: TableSchema,
    pub(crate) rows: Vec<Row>,
    /// Tombstone flags, parallel to `rows`. A deleted row keeps its slot
    /// (and its values, for diagnostics) so row ids stay stable.
    deleted: Vec<bool>,
    /// Number of tombstoned rows.
    dead: usize,
    /// `indexes[col]`, when built, maps an integer value to the sorted live
    /// row ids holding it. One slot per column; built by
    /// [`Table::build_index`]; nulls are not indexed.
    indexes: Vec<Option<IntMap<Vec<RowId>>>>,
}

/// Inserts `rid` into a sorted posting list (no-op if already present).
fn index_add(idx: &mut IntMap<Vec<RowId>>, value: i64, rid: RowId) {
    let list = idx.entry(value).or_default();
    if let Err(pos) = list.binary_search(&rid) {
        list.insert(pos, rid);
    }
}

/// Removes `rid` from a sorted posting list, dropping empty lists.
fn index_remove(idx: &mut IntMap<Vec<RowId>>, value: i64, rid: RowId) {
    if let Some(list) = idx.get_mut(&value) {
        if let Ok(pos) = list.binary_search(&rid) {
            list.remove(pos);
        }
        if list.is_empty() {
            idx.remove(&value);
        }
    }
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn new(schema: TableSchema) -> Self {
        let arity = schema.arity();
        Table { schema, rows: Vec::new(), deleted: Vec::new(), dead: 0, indexes: vec![None; arity] }
    }

    /// The table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of row *slots* (live + tombstoned). Row ids range over
    /// `0..len()`; use [`Table::live_rows`] for the live cardinality.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Number of live (non-tombstoned) rows.
    pub fn live_rows(&self) -> usize {
        self.rows.len() - self.dead
    }

    /// Whether the table holds no live rows.
    pub fn is_empty(&self) -> bool {
        self.live_rows() == 0
    }

    /// Whether the row with the given id has been deleted.
    pub fn is_deleted(&self, id: RowId) -> bool {
        self.deleted.get(id as usize).copied().unwrap_or(false)
    }

    /// Returns the row with the given id. Tombstoned rows keep their values
    /// readable (callers that must skip them check [`Table::is_deleted`]).
    ///
    /// # Panics
    /// Panics if `id` is out of range; row ids come from this table so an
    /// out-of-range id is an internal logic error, not bad user input.
    pub fn row(&self, id: RowId) -> &Row {
        &self.rows[id as usize]
    }

    /// Iterates over `(RowId, &Row)` pairs of **live** rows.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.rows
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.deleted[i])
            .map(|(i, r)| (i as RowId, r))
    }

    /// Validates arity, column types, and the non-null primary key rule.
    pub(crate) fn validate_row(&self, values: &[Value]) -> Result<(), EngineError> {
        if values.len() != self.schema.arity() {
            return Err(EngineError::RowMismatch {
                table: self.schema.name.clone(),
                detail: format!("expected {} values, got {}", self.schema.arity(), values.len()),
            });
        }
        for (i, v) in values.iter().enumerate() {
            let want = self.schema.columns[i].ty;
            let ok = match v.data_type() {
                None => true, // null fits any column
                Some(t) => t == want,
            };
            if !ok {
                return Err(EngineError::RowMismatch {
                    table: self.schema.name.clone(),
                    detail: format!(
                        "column `{}` expects {}, got {:?}",
                        self.schema.columns[i].name, want, v
                    ),
                });
            }
        }
        if let Some(pk) = self.schema.primary_key {
            if values[pk].is_null() {
                return Err(EngineError::RowMismatch {
                    table: self.schema.name.clone(),
                    detail: "primary key may not be NULL".into(),
                });
            }
        }
        Ok(())
    }

    /// Appends a row after validating arity and column types. Existing
    /// equality indexes are maintained in place (the new id is appended to
    /// each value's posting list), so a loaded-and-indexed table stays
    /// indexed across writes.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<RowId, EngineError> {
        self.validate_row(&values)?;
        let id = self.rows.len() as RowId;
        let row = values.into_boxed_slice();
        for (col, idx) in self.built_indexes_mut() {
            if let Some(v) = row[col].as_int() {
                // The new id is the maximum, so pushing keeps lists sorted.
                idx.entry(v).or_default().push(id);
            }
        }
        self.rows.push(row);
        self.deleted.push(false);
        Ok(id)
    }

    /// Replaces the row with the given id, returning the previous values.
    /// Indexes are maintained incrementally (old value removed, new value
    /// inserted at its sorted position). Updating a tombstoned or
    /// out-of-range row is an error.
    pub fn update(&mut self, id: RowId, values: Vec<Value>) -> Result<Row, EngineError> {
        if id as usize >= self.rows.len() || self.deleted[id as usize] {
            return Err(EngineError::RowMismatch {
                table: self.schema.name.clone(),
                detail: format!("update of missing or deleted row {id}"),
            });
        }
        self.validate_row(&values)?;
        let new = values.into_boxed_slice();
        let old = std::mem::replace(&mut self.rows[id as usize], new);
        let now_row = &self.rows[id as usize];
        for (col, idx) in self.indexes.iter_mut().enumerate() {
            let Some(idx) = idx else { continue };
            let (was, now) = (old[col].as_int(), now_row[col].as_int());
            if was != now {
                if let Some(v) = was {
                    index_remove(idx, v, id);
                }
                if let Some(v) = now {
                    index_add(idx, v, id);
                }
            }
        }
        Ok(old)
    }

    /// Tombstones the row with the given id, returning a copy of its values
    /// (the slot keeps them readable; see [`Table::row`]). Indexes are
    /// maintained incrementally. Deleting twice is an error.
    pub fn delete(&mut self, id: RowId) -> Result<Row, EngineError> {
        if id as usize >= self.rows.len() || self.deleted[id as usize] {
            return Err(EngineError::RowMismatch {
                table: self.schema.name.clone(),
                detail: format!("delete of missing or deleted row {id}"),
            });
        }
        self.deleted[id as usize] = true;
        self.dead += 1;
        let row = self.rows[id as usize].clone();
        for (col, idx) in self.built_indexes_mut() {
            if let Some(v) = row[col].as_int() {
                index_remove(idx, v, id);
            }
        }
        Ok(row)
    }

    /// Builds (or rebuilds) the equality index on an integer column.
    /// Tombstoned rows are excluded.
    pub fn build_index(&mut self, col: ColId) -> Result<(), EngineError> {
        if col >= self.schema.arity() {
            return Err(EngineError::UnknownColumn {
                table: self.schema.name.clone(),
                column: format!("#{col}"),
            });
        }
        if self.schema.columns[col].ty != DataType::Int {
            return Err(EngineError::NonIntegerKey {
                table: self.schema.name.clone(),
                column: self.schema.columns[col].name.clone(),
            });
        }
        let mut idx = IntMap::<Vec<RowId>>::default();
        for (rid, row) in self.iter() {
            if let Some(v) = row[col].as_int() {
                idx.entry(v).or_default().push(rid);
            }
        }
        self.indexes[col] = Some(idx);
        Ok(())
    }

    /// The built index on `col`, if any.
    fn index(&self, col: ColId) -> Option<&IntMap<Vec<RowId>>> {
        self.indexes.get(col).and_then(Option::as_ref)
    }

    /// `(column, index)` for every built index.
    fn built_indexes_mut(&mut self) -> impl Iterator<Item = (ColId, &mut IntMap<Vec<RowId>>)> {
        self.indexes.iter_mut().enumerate().filter_map(|(col, idx)| Some((col, idx.as_mut()?)))
    }

    /// Whether an index exists on `col`.
    pub fn has_index(&self, col: ColId) -> bool {
        self.index(col).is_some()
    }

    /// Live row ids whose `col` equals `value`, using the index if present
    /// and a scan otherwise. Result is in ascending row-id order either way.
    pub fn lookup(&self, col: ColId, value: i64) -> Vec<RowId> {
        if let Some(idx) = self.index(col) {
            return idx.get(&value).cloned().unwrap_or_default();
        }
        self.iter()
            .filter(|(_, r)| r[col].as_int() == Some(value))
            .map(|(i, _)| i)
            .collect()
    }

    /// Indexed lookup returning a borrowed slice; `None` if no index on `col`.
    pub fn lookup_indexed(&self, col: ColId, value: i64) -> Option<&[RowId]> {
        self.index(col).map(|idx| idx.get(&value).map_or(&[][..], |v| v.as_slice()))
    }

    /// Number of distinct non-null integer values in `col` over live rows,
    /// using the index if one exists and a scan otherwise. Used by
    /// cardinality estimation.
    pub fn distinct_ints(&self, col: ColId) -> usize {
        if let Some(idx) = self.index(col) {
            return idx.len();
        }
        let mut seen: Vec<i64> = self
            .iter()
            .filter_map(|(_, r)| r.get(col).and_then(Value::as_int))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Verifies primary-key uniqueness over all live rows.
    pub fn check_primary_key(&self) -> Result<(), EngineError> {
        let Some(pk) = self.schema.primary_key else { return Ok(()) };
        let mut seen = HashMap::with_capacity(self.live_rows());
        for (_, row) in self.iter() {
            if let Some(k) = row[pk].as_int() {
                if seen.insert(k, ()).is_some() {
                    return Err(EngineError::DuplicateKey {
                        table: self.schema.name.clone(),
                        key: k,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;

    fn schema() -> TableSchema {
        TableSchema {
            name: "t".into(),
            columns: vec![
                ColumnDef { name: "id".into(), ty: DataType::Int },
                ColumnDef { name: "txt".into(), ty: DataType::Text },
                ColumnDef { name: "fk".into(), ty: DataType::Int },
            ],
            primary_key: Some(0),
        }
    }

    fn filled() -> Table {
        let mut t = Table::new(schema());
        t.insert(vec![Value::Int(1), Value::text("a"), Value::Int(10)]).unwrap();
        t.insert(vec![Value::Int(2), Value::text("b"), Value::Int(10)]).unwrap();
        t.insert(vec![Value::Int(3), Value::text("c"), Value::Null]).unwrap();
        t
    }

    #[test]
    fn insert_and_read() {
        let t = filled();
        assert_eq!(t.len(), 3);
        assert_eq!(t.live_rows(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.row(1)[1], Value::text("b"));
        assert_eq!(t.iter().count(), 3);
    }

    #[test]
    fn insert_validates_arity_and_types() {
        let mut t = Table::new(schema());
        assert!(matches!(
            t.insert(vec![Value::Int(1)]),
            Err(EngineError::RowMismatch { .. })
        ));
        assert!(matches!(
            t.insert(vec![Value::text("x"), Value::text("a"), Value::Int(1)]),
            Err(EngineError::RowMismatch { .. })
        ));
        assert!(matches!(
            t.insert(vec![Value::Null, Value::text("a"), Value::Int(1)]),
            Err(EngineError::RowMismatch { .. })
        )); // null pk
    }

    #[test]
    fn lookup_scan_and_indexed_agree() {
        let mut t = filled();
        assert!(!t.has_index(2));
        let scan = t.lookup(2, 10);
        t.build_index(2).unwrap();
        assert!(t.has_index(2));
        let idx = t.lookup(2, 10);
        assert_eq!(scan, idx);
        assert_eq!(idx, vec![0, 1]);
        assert_eq!(t.lookup_indexed(2, 10).unwrap(), &[0, 1]);
        assert_eq!(t.lookup_indexed(2, 999).unwrap(), &[] as &[RowId]);
        assert!(t.lookup_indexed(0, 1).is_none());

        // After a mix of writes, the maintained index still equals both a
        // scan of the same table and a freshly built index, for every key.
        let mut plain = t.clone();
        plain.indexes[2] = None;
        let writes: [(&str, RowId, i64); 6] =
            [("insert", 3, 20), ("insert", 4, 10), ("update", 1, 20), ("delete", 0, 0),
             ("update", 3, 1 << 32), ("insert", 5, -7)];
        for (op, rid, v) in writes {
            let row = vec![Value::Int(i64::from(rid) + 1), Value::text("w"), Value::Int(v)];
            for table in [&mut t, &mut plain] {
                match op {
                    "insert" => assert_eq!(table.insert(row.clone()).unwrap(), rid),
                    "update" => drop(table.update(rid, row.clone()).unwrap()),
                    _ => drop(table.delete(rid).unwrap()),
                }
            }
            let mut rebuilt = plain.clone();
            rebuilt.build_index(2).unwrap();
            for key in [-7, 1, 10, 20, 1 << 32, 999] {
                let scanned = plain.lookup(2, key);
                assert_eq!(t.lookup(2, key), scanned, "after {op} {rid}: key {key}");
                assert_eq!(t.lookup_indexed(2, key).unwrap(), scanned.as_slice());
                assert_eq!(rebuilt.lookup_indexed(2, key).unwrap(), scanned.as_slice());
            }
            assert_eq!(t.distinct_ints(2), plain.distinct_ints(2), "after {op} {rid}");
        }
    }

    /// How many of the 1,024 values of the hash's low 10 bits — the
    /// bucket bits of a 1,024-slot table — `keys` reach.
    fn low_bit_coverage(keys: impl Iterator<Item = i64>) -> usize {
        let mut seen = [false; 1024];
        for k in keys {
            let mut h = IntHasher::default();
            h.write_i64(k);
            seen[(h.finish() & 1023) as usize] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }

    #[test]
    fn int_hasher_spreads_dense_and_high_bit_keys() {
        let sequential = low_bit_coverage(0..1024);
        assert!(sequential >= 900, "sequential keys reach {sequential} of 1024 buckets");
        let high = low_bit_coverage((0..1024).map(|i| i << 32));
        assert!(high >= 900, "keys differing only in high bits reach {high} of 1024 buckets");
    }

    #[test]
    fn nulls_not_indexed() {
        let mut t = filled();
        t.build_index(2).unwrap();
        // Row 2 has a NULL fk: it must not appear under any key.
        for v in [-1, 0, 10] {
            assert!(!t.lookup(2, v).contains(&2));
        }
    }

    #[test]
    fn index_on_text_column_rejected() {
        let mut t = filled();
        assert!(matches!(t.build_index(1), Err(EngineError::NonIntegerKey { .. })));
        assert!(matches!(t.build_index(9), Err(EngineError::UnknownColumn { .. })));
    }

    #[test]
    fn insert_maintains_index() {
        let mut t = filled();
        t.build_index(2).unwrap();
        t.insert(vec![Value::Int(4), Value::text("d"), Value::Int(10)]).unwrap();
        assert!(t.has_index(2), "insert maintains the index in place");
        assert_eq!(t.lookup(2, 10), vec![0, 1, 3]);
        assert_eq!(t.lookup_indexed(2, 10).unwrap(), &[0, 1, 3]);
    }

    #[test]
    fn update_maintains_index() {
        let mut t = filled();
        t.build_index(2).unwrap();
        let old = t.update(0, vec![Value::Int(1), Value::text("a2"), Value::Int(20)]).unwrap();
        assert_eq!(old[2], Value::Int(10));
        assert_eq!(t.lookup(2, 10), vec![1]);
        assert_eq!(t.lookup(2, 20), vec![0]);
        // Updating a NULL into a value and back.
        t.update(2, vec![Value::Int(3), Value::text("c"), Value::Int(20)]).unwrap();
        assert_eq!(t.lookup(2, 20), vec![0, 2]);
        t.update(2, vec![Value::Int(3), Value::text("c"), Value::Null]).unwrap();
        assert_eq!(t.lookup(2, 20), vec![0]);
        assert!(matches!(t.update(9, vec![]), Err(EngineError::RowMismatch { .. })));
    }

    #[test]
    fn delete_tombstones_and_maintains_index() {
        let mut t = filled();
        t.build_index(2).unwrap();
        let old = t.delete(0).unwrap();
        assert_eq!(old[0], Value::Int(1));
        assert!(t.is_deleted(0));
        assert_eq!(t.len(), 3, "slot count is stable");
        assert_eq!(t.live_rows(), 2);
        assert_eq!(t.lookup(2, 10), vec![1], "index excludes the tombstone");
        assert_eq!(t.iter().count(), 2, "iteration skips the tombstone");
        assert!(t.delete(0).is_err(), "double delete refused");
        // Row ids of survivors are unchanged.
        assert_eq!(t.row(1)[1], Value::text("b"));
    }

    #[test]
    fn delete_then_reinsert_pk_is_legal() {
        let mut t = filled();
        t.delete(0).unwrap();
        t.insert(vec![Value::Int(1), Value::text("a'"), Value::Int(10)]).unwrap();
        assert!(t.check_primary_key().is_ok(), "tombstoned pk does not conflict");
    }

    #[test]
    fn deleted_rows_skipped_by_scans() {
        let mut t = filled();
        t.delete(1).unwrap();
        assert_eq!(t.lookup(2, 10), vec![0], "scan path skips tombstones");
        assert_eq!(t.distinct_ints(0), 2);
        let mut t2 = Table::new(schema());
        t2.insert(vec![Value::Int(1), Value::text("x"), Value::Null]).unwrap();
        t2.delete(0).unwrap();
        assert!(t2.is_empty(), "all-tombstoned table is empty");
    }

    #[test]
    fn pk_check() {
        let mut t = filled();
        assert!(t.check_primary_key().is_ok());
        t.insert(vec![Value::Int(1), Value::text("dup"), Value::Null]).unwrap();
        assert!(matches!(t.check_primary_key(), Err(EngineError::DuplicateKey { key: 1, .. })));
    }
}

#[cfg(test)]
mod distinct_tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    #[test]
    fn distinct_ints_scan_and_index_agree() {
        let schema = TableSchema {
            name: "t".into(),
            columns: vec![
                ColumnDef { name: "a".into(), ty: DataType::Int },
                ColumnDef { name: "s".into(), ty: DataType::Text },
            ],
            primary_key: None,
        };
        let mut t = Table::new(schema);
        for v in [1i64, 2, 2, 3, 3, 3] {
            t.insert(vec![Value::Int(v), Value::text("x")]).unwrap();
        }
        t.insert(vec![Value::Null, Value::text("y")]).unwrap();
        assert_eq!(t.distinct_ints(0), 3, "nulls excluded");
        t.build_index(0).unwrap();
        assert_eq!(t.distinct_ints(0), 3);
        // Text column: no integers at all.
        assert_eq!(t.distinct_ints(1), 0);
        // Out-of-range column: empty, not a panic.
        assert_eq!(t.distinct_ints(9), 0);
    }
}
