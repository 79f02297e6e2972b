//! The database catalog: tables plus the key/foreign-key schema graph,
//! and the epoch-stamped write path.
//!
//! Every database carries a process-unique **database id** and a monotonic
//! **epoch**. Bulk loading (the builder / `insert_values` path) happens at
//! epoch 0; afterwards the first-class write methods —
//! [`Database::append_rows`], [`Database::update_row`],
//! [`Database::delete_row`] — each bump the epoch and record an
//! [`EpochDelta`] describing exactly which `(table, column)` inputs were
//! dirtied. Downstream layers (textindex delta postings, the evaluation
//! cache's selective invalidation) consume the delta log through
//! [`Database::deltas_since`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::EngineError;
use crate::schema::{ColId, SchemaFk, TableSchema};
use crate::table::{Row, RowId, Table};
use crate::value::{DataType, Value};

/// Source of process-unique database ids (see [`Database::db_id`]).
static NEXT_DB_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_db_id() -> u64 {
    NEXT_DB_ID.fetch_add(1, Ordering::Relaxed)
}

/// Identifier of a table within a [`Database`] (dense, 0-based).
pub type TableId = usize;

/// Identifier of a foreign key within a [`Database`] (dense, 0-based).
pub type FkId = usize;

/// A named key/foreign-key association. These are the edges of the schema
/// graph from which the query lattice is generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ForeignKey {
    /// Referencing table.
    pub from_table: TableId,
    /// Referencing column in `from_table` (an `Int` column).
    pub from_col: ColId,
    /// Referenced table.
    pub to_table: TableId,
    /// Referenced column in `to_table` (an `Int` column, usually its pk).
    pub to_col: ColId,
}

impl From<SchemaFk> for ForeignKey {
    fn from(fk: SchemaFk) -> Self {
        ForeignKey {
            from_table: fk.from_table,
            from_col: fk.from_col,
            to_table: fk.to_table,
            to_col: fk.to_col,
        }
    }
}

/// What a write did, for delta consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// Rows appended ([`Database::append_rows`]).
    Append,
    /// A row's values replaced in place ([`Database::update_row`]).
    Update,
    /// A row tombstoned ([`Database::delete_row`]).
    Delete,
}

/// One epoch's dirty set: which table, which rows, which columns changed,
/// and — for updates and deletes — the prior row values, so index and
/// postings maintenance can subtract the old terms without a rescan.
#[derive(Debug, Clone)]
pub struct EpochDelta {
    /// The epoch this write created (the database's epoch after the write).
    pub epoch: u64,
    /// The written table.
    pub table: TableId,
    /// What happened.
    pub kind: DeltaKind,
    /// Columns whose values changed. Appends and deletes dirty every
    /// column; updates list only the columns whose value actually differs.
    pub cols: Vec<ColId>,
    /// The affected row ids.
    pub rows: Vec<RowId>,
    /// Prior values of updated/deleted rows (empty for appends).
    pub old: Vec<(RowId, Row)>,
}

/// An in-memory relational database: tables, name lookup, foreign keys,
/// and the epoch-stamped delta log (see the module docs).
#[derive(Debug)]
pub struct Database {
    tables: Vec<Table>,
    by_name: HashMap<String, TableId>,
    fks: Vec<ForeignKey>,
    /// Process-unique identity; a clone gets a fresh one (clones diverge).
    db_id: u64,
    /// Monotonic write counter; 0 = freshly loaded, never written.
    epoch: u64,
    /// Per-epoch dirty sets, ascending by epoch.
    deltas: Vec<EpochDelta>,
}

impl Clone for Database {
    /// Clones the data but assigns a **fresh database id**: two databases
    /// that can diverge must never share a cache identity `(db_id, epoch)`.
    fn clone(&self) -> Self {
        Database {
            tables: self.tables.clone(),
            by_name: self.by_name.clone(),
            fks: self.fks.clone(),
            db_id: fresh_db_id(),
            epoch: self.epoch,
            deltas: self.deltas.clone(),
        }
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database {
            tables: Vec::new(),
            by_name: HashMap::new(),
            fks: Vec::new(),
            db_id: fresh_db_id(),
            epoch: 0,
            deltas: Vec::new(),
        }
    }

    /// Process-unique identity of this database instance. Together with
    /// [`Database::epoch`] this forms the cache identity downstream layers
    /// stamp entries with.
    pub fn db_id(&self) -> u64 {
        self.db_id
    }

    /// The current epoch: number of write calls applied since load.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The deltas recorded after `epoch`, ascending. A consumer that last
    /// synchronized at epoch E calls `deltas_since(E)` and applies what it
    /// gets; an empty slice means it is current.
    pub fn deltas_since(&self, epoch: u64) -> &[EpochDelta] {
        let start = self.deltas.partition_point(|d| d.epoch <= epoch);
        &self.deltas[start..]
    }

    /// Drops deltas at or below `epoch` from the log (they were compacted
    /// into every consumer). [`Database::deltas_since`] for older epochs
    /// then silently under-reports, so callers gate on
    /// [`Database::oldest_delta_epoch`].
    pub fn truncate_deltas(&mut self, epoch: u64) {
        self.deltas.retain(|d| d.epoch > epoch);
    }

    /// The smallest epoch still covered by the delta log: a consumer pinned
    /// at an epoch `>= oldest_delta_epoch() - 1` can catch up incrementally;
    /// anything older was compacted away. Equals the current epoch when the
    /// log is empty.
    pub fn oldest_delta_epoch(&self) -> u64 {
        self.deltas.first().map_or(self.epoch, |d| d.epoch)
    }

    /// Appends a batch of rows to a table as one epoch. All rows are
    /// validated before any is inserted, so a bad row leaves the database
    /// untouched. Returns the new row ids.
    pub fn append_rows(
        &mut self,
        table: TableId,
        rows: Vec<Vec<Value>>,
    ) -> Result<Vec<RowId>, EngineError> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| EngineError::UnknownTable(format!("#{table}")))?;
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        for r in &rows {
            t.validate_row(r)?;
        }
        let mut ids = Vec::with_capacity(rows.len());
        for r in rows {
            ids.push(t.insert(r).expect("validated above"));
        }
        let cols = (0..t.schema().arity()).collect();
        self.epoch += 1;
        self.deltas.push(EpochDelta {
            epoch: self.epoch,
            table,
            kind: DeltaKind::Append,
            cols,
            rows: ids.clone(),
            old: Vec::new(),
        });
        Ok(ids)
    }

    /// Replaces one row's values as one epoch. The delta records only the
    /// columns whose value actually changed (a no-op update still bumps the
    /// epoch but dirties no columns).
    pub fn update_row(
        &mut self,
        table: TableId,
        id: RowId,
        values: Vec<Value>,
    ) -> Result<(), EngineError> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| EngineError::UnknownTable(format!("#{table}")))?;
        let old = t.update(id, values)?;
        let new = t.row(id);
        let cols: Vec<ColId> = old
            .iter()
            .zip(new.iter())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        self.epoch += 1;
        self.deltas.push(EpochDelta {
            epoch: self.epoch,
            table,
            kind: DeltaKind::Update,
            cols,
            rows: vec![id],
            old: vec![(id, old)],
        });
        Ok(())
    }

    /// Tombstones one row as one epoch (row ids stay stable; see
    /// [`Table::delete`]).
    pub fn delete_row(&mut self, table: TableId, id: RowId) -> Result<(), EngineError> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| EngineError::UnknownTable(format!("#{table}")))?;
        let old = t.delete(id)?;
        let cols = (0..t.schema().arity()).collect();
        self.epoch += 1;
        self.deltas.push(EpochDelta {
            epoch: self.epoch,
            table,
            kind: DeltaKind::Delete,
            cols,
            rows: vec![id],
            old: vec![(id, old)],
        });
        Ok(())
    }

    /// Registers a table; its name must be unique.
    pub fn add_table(&mut self, schema: TableSchema) -> Result<TableId, EngineError> {
        if self.by_name.contains_key(&schema.name) {
            return Err(EngineError::DuplicateTable(schema.name));
        }
        let mut seen = HashMap::new();
        for c in &schema.columns {
            if seen.insert(c.name.clone(), ()).is_some() {
                return Err(EngineError::DuplicateColumn {
                    table: schema.name.clone(),
                    column: c.name.clone(),
                });
            }
        }
        if let Some(pk) = schema.primary_key {
            if pk >= schema.columns.len() {
                return Err(EngineError::UnknownColumn {
                    table: schema.name.clone(),
                    column: format!("#{pk}"),
                });
            }
            if schema.columns[pk].ty != DataType::Int {
                return Err(EngineError::NonIntegerKey {
                    table: schema.name.clone(),
                    column: schema.columns[pk].name.clone(),
                });
            }
        }
        let id = self.tables.len();
        self.by_name.insert(schema.name.clone(), id);
        self.tables.push(Table::new(schema));
        Ok(id)
    }

    /// Declares a key/foreign-key edge after validating both endpoints are
    /// existing integer columns.
    pub fn add_foreign_key(&mut self, fk: ForeignKey) -> Result<FkId, EngineError> {
        for (t, c) in [(fk.from_table, fk.from_col), (fk.to_table, fk.to_col)] {
            let table = self
                .tables
                .get(t)
                .ok_or_else(|| EngineError::UnknownTable(format!("#{t}")))?;
            let col = table.schema().columns.get(c).ok_or_else(|| {
                EngineError::UnknownColumn {
                    table: table.schema().name.clone(),
                    column: format!("#{c}"),
                }
            })?;
            if col.ty != DataType::Int {
                return Err(EngineError::NonIntegerKey {
                    table: table.schema().name.clone(),
                    column: col.name.clone(),
                });
            }
        }
        let id = self.fks.len();
        self.fks.push(fk);
        Ok(id)
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// The table with the given id.
    ///
    /// # Panics
    /// Panics on an out-of-range id (ids originate from this database).
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id]
    }

    /// Looks up a table id by name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.by_name.get(name).copied()
    }

    /// All tables with their ids.
    pub fn tables(&self) -> impl Iterator<Item = (TableId, &Table)> {
        self.tables.iter().enumerate()
    }

    /// All declared foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.fks
    }

    /// The foreign key with the given id.
    pub fn foreign_key(&self, id: FkId) -> &ForeignKey {
        &self.fks[id]
    }

    /// Inserts a row into a table identified by name.
    pub fn insert_values(&mut self, table: &str, values: Vec<Value>) -> Result<RowId, EngineError> {
        let id = self
            .table_id(table)
            .ok_or_else(|| EngineError::UnknownTable(table.to_owned()))?;
        self.tables[id].insert(values)
    }

    /// Inserts a row into a table identified by id.
    pub fn insert(&mut self, table: TableId, values: Vec<Value>) -> Result<RowId, EngineError> {
        self.tables[table].insert(values)
    }

    /// Builds join indexes on every column that participates in a foreign key
    /// (both endpoints) and on every primary key. Call after bulk loading.
    pub fn finalize(&mut self) {
        let mut targets: Vec<(TableId, ColId)> = Vec::new();
        for fk in &self.fks {
            targets.push((fk.from_table, fk.from_col));
            targets.push((fk.to_table, fk.to_col));
        }
        for (tid, t) in self.tables.iter().enumerate() {
            if let Some(pk) = t.schema().primary_key {
                targets.push((tid, pk));
            }
        }
        targets.sort_unstable();
        targets.dedup();
        for (tid, col) in targets {
            // Endpoints were validated as Int columns on declaration.
            self.tables[tid]
                .build_index(col)
                .expect("fk/pk endpoints are validated integer columns");
        }
    }

    /// Total number of live tuples across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(Table::live_rows).sum()
    }

    /// Validates referential integrity: every non-null FK value must resolve
    /// to at least one referenced row, and primary keys must be unique.
    /// Intended for tests and data generators, not the hot path.
    pub fn check_integrity(&self) -> Result<(), EngineError> {
        for t in &self.tables {
            t.check_primary_key()?;
        }
        for fk in &self.fks {
            let from = &self.tables[fk.from_table];
            let to = &self.tables[fk.to_table];
            for (_, row) in from.iter() {
                if let Some(v) = row[fk.from_col].as_int() {
                    if to.lookup(fk.to_col, v).is_empty() {
                        return Err(EngineError::RowMismatch {
                            table: from.schema().name.clone(),
                            detail: format!(
                                "dangling foreign key value {v} in column `{}` (references `{}`)",
                                from.schema().columns[fk.from_col].name,
                                to.schema().name
                            ),
                        });
                    }
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

    fn two_table_db() -> Database {
        let mut db = Database::new();
        let mut color = TableSchema::new("color");
        color.columns = vec![
            ColumnDef { name: "id".into(), ty: DataType::Int },
            ColumnDef { name: "name".into(), ty: DataType::Text },
        ];
        color.primary_key = Some(0);
        let mut item = TableSchema::new("item");
        item.columns = vec![
            ColumnDef { name: "id".into(), ty: DataType::Int },
            ColumnDef { name: "color_id".into(), ty: DataType::Int },
        ];
        item.primary_key = Some(0);
        let c = db.add_table(color).unwrap();
        let i = db.add_table(item).unwrap();
        db.add_foreign_key(ForeignKey { from_table: i, from_col: 1, to_table: c, to_col: 0 })
            .unwrap();
        db
    }

    #[test]
    fn name_lookup_and_duplicates() {
        let mut db = two_table_db();
        assert_eq!(db.table_id("color"), Some(0));
        assert_eq!(db.table_id("item"), Some(1));
        assert_eq!(db.table_id("nope"), None);
        assert!(matches!(
            db.add_table(TableSchema::new("color")),
            Err(EngineError::DuplicateTable(_))
        ));
        assert_eq!(db.table_count(), 2);
    }

    #[test]
    fn duplicate_column_rejected() {
        let mut db = Database::new();
        let mut s = TableSchema::new("t");
        s.columns = vec![
            ColumnDef { name: "a".into(), ty: DataType::Int },
            ColumnDef { name: "a".into(), ty: DataType::Int },
        ];
        assert!(matches!(db.add_table(s), Err(EngineError::DuplicateColumn { .. })));
    }

    #[test]
    fn text_pk_rejected() {
        let mut db = Database::new();
        let mut s = TableSchema::new("t");
        s.columns = vec![ColumnDef { name: "a".into(), ty: DataType::Text }];
        s.primary_key = Some(0);
        assert!(matches!(db.add_table(s), Err(EngineError::NonIntegerKey { .. })));
    }

    #[test]
    fn fk_validation() {
        let mut db = two_table_db();
        assert!(db
            .add_foreign_key(ForeignKey { from_table: 9, from_col: 0, to_table: 0, to_col: 0 })
            .is_err());
        assert!(db
            .add_foreign_key(ForeignKey { from_table: 1, from_col: 9, to_table: 0, to_col: 0 })
            .is_err());
        // Text column endpoint.
        assert!(db
            .add_foreign_key(ForeignKey { from_table: 1, from_col: 1, to_table: 0, to_col: 1 })
            .is_err());
        assert_eq!(db.foreign_keys().len(), 1);
        assert_eq!(db.foreign_key(0).to_table, 0);
    }

    #[test]
    fn finalize_builds_indexes() {
        let mut db = two_table_db();
        db.insert_values("color", vec![Value::Int(1), Value::text("red")]).unwrap();
        db.insert_values("item", vec![Value::Int(5), Value::Int(1)]).unwrap();
        db.finalize();
        assert!(db.table(0).has_index(0));
        assert!(db.table(1).has_index(1));
        assert_eq!(db.total_rows(), 2);
    }

    #[test]
    fn integrity_check() {
        let mut db = two_table_db();
        db.insert_values("color", vec![Value::Int(1), Value::text("red")]).unwrap();
        db.insert_values("item", vec![Value::Int(5), Value::Int(1)]).unwrap();
        assert!(db.check_integrity().is_ok());
        db.insert_values("item", vec![Value::Int(6), Value::Int(99)]).unwrap();
        assert!(db.check_integrity().is_err());
    }

    #[test]
    fn null_fk_passes_integrity() {
        let mut db = two_table_db();
        db.insert_values("item", vec![Value::Int(5), Value::Null]).unwrap();
        assert!(db.check_integrity().is_ok());
    }

    #[test]
    fn insert_unknown_table() {
        let mut db = two_table_db();
        assert!(matches!(
            db.insert_values("ghost", vec![]),
            Err(EngineError::UnknownTable(_))
        ));
    }

    #[test]
    fn writes_bump_epoch_and_record_deltas() {
        let mut db = two_table_db();
        db.insert_values("color", vec![Value::Int(1), Value::text("red")]).unwrap();
        db.finalize();
        assert_eq!(db.epoch(), 0, "bulk loading stays at epoch 0");
        assert!(db.deltas_since(0).is_empty());

        let ids = db
            .append_rows(0, vec![vec![Value::Int(2), Value::text("blue")]])
            .unwrap();
        assert_eq!(ids, vec![1]);
        assert_eq!(db.epoch(), 1);
        db.update_row(0, 1, vec![Value::Int(2), Value::text("navy")]).unwrap();
        db.delete_row(0, 0).unwrap();
        assert_eq!(db.epoch(), 3);

        let deltas = db.deltas_since(0);
        assert_eq!(deltas.len(), 3);
        assert_eq!(deltas[0].kind, DeltaKind::Append);
        assert_eq!(deltas[0].cols, vec![0, 1], "append dirties every column");
        assert_eq!(deltas[1].kind, DeltaKind::Update);
        assert_eq!(deltas[1].cols, vec![1], "only the changed column is dirty");
        assert_eq!(deltas[1].old[0].1[1], Value::text("blue"));
        assert_eq!(deltas[2].kind, DeltaKind::Delete);
        assert_eq!(deltas[2].old[0].1[1], Value::text("red"));
        assert_eq!(db.deltas_since(2).len(), 1, "catch-up from a later epoch");
        assert!(db.deltas_since(3).is_empty());

        // Appended row is indexed without a finalize() call.
        assert_eq!(db.table(0).lookup_indexed(0, 2).unwrap(), &[1]);
        // Deleted row left the index.
        assert_eq!(db.table(0).lookup_indexed(0, 1).unwrap(), &[] as &[RowId]);
    }

    #[test]
    fn append_validates_whole_batch_atomically() {
        let mut db = two_table_db();
        let err = db.append_rows(
            0,
            vec![
                vec![Value::Int(1), Value::text("ok")],
                vec![Value::Int(2)], // bad arity
            ],
        );
        assert!(err.is_err());
        assert_eq!(db.table(0).len(), 0, "no partial batch");
        assert_eq!(db.epoch(), 0, "failed write does not bump the epoch");
    }

    #[test]
    fn clone_gets_fresh_db_id_keeps_epoch() {
        let mut db = two_table_db();
        db.append_rows(0, vec![vec![Value::Int(1), Value::text("red")]]).unwrap();
        let snap = db.clone();
        assert_ne!(snap.db_id(), db.db_id(), "clones must not share cache identity");
        assert_eq!(snap.epoch(), db.epoch());
        assert_eq!(snap.deltas_since(0).len(), 1);
    }

    #[test]
    fn delta_log_truncation() {
        let mut db = two_table_db();
        for i in 0..4 {
            db.append_rows(0, vec![vec![Value::Int(i), Value::text("c")]]).unwrap();
        }
        assert_eq!(db.oldest_delta_epoch(), 1);
        db.truncate_deltas(2);
        assert_eq!(db.oldest_delta_epoch(), 3);
        assert_eq!(db.deltas_since(2).len(), 2);
        db.truncate_deltas(4);
        assert_eq!(db.oldest_delta_epoch(), db.epoch(), "empty log = current");
    }
}
