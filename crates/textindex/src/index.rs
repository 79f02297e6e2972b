//! The inverted index proper: base postings plus per-epoch delta postings.
//!
//! The base postings are built offline ([`InvertedIndex::build`]), like the
//! paper's Lucene indexes. Once the database goes mutable, the index keeps
//! up **incrementally**: [`InvertedIndex::apply_deltas`] folds the
//! database's epoch delta log into small per-term *delta postings* (pending
//! adds and removes), reads merge base + delta on the fly
//! (`Cow::Owned` only for dirtied terms), and a threshold-triggered
//! [`InvertedIndex::compact`] rewrites just the touched terms into the base
//! — a LeIndex-style partial rebuild instead of a full reindex.

use std::borrow::Cow;
use std::collections::HashMap;

use relengine::{Database, DeltaKind, Row, RowId, TableId};

use crate::tokenizer::tokenize;

/// Pending delta rows (term × row pairs) that trigger a compaction.
const DEFAULT_COMPACT_THRESHOLD: usize = 4096;

/// Inverted index over all text attributes of a database.
///
/// For each term it records, per table, the sorted distinct row ids whose
/// text attributes contain the term. Query-time lookups are hash probes;
/// terms with pending deltas pay one merge on read.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    /// term → (sorted by table id) list of per-table posting lists.
    postings: HashMap<String, Vec<(TableId, Vec<RowId>)>>,
    /// term → table → sorted row ids added since the last compaction.
    delta_adds: HashMap<String, HashMap<TableId, Vec<RowId>>>,
    /// term → table → sorted row ids removed since the last compaction.
    delta_removes: HashMap<String, HashMap<TableId, Vec<RowId>>>,
    /// Pending (term, row) pairs across both delta maps.
    pending: usize,
    /// Compaction trigger: `pending >= compact_threshold` after an
    /// [`InvertedIndex::apply_deltas`] call compacts.
    compact_threshold: usize,
    /// The database epoch this index has fully absorbed.
    applied_epoch: u64,
    /// Lifetime number of compactions performed.
    compactions: u64,
    /// Number of indexed (table, row) pairs, for reporting.
    indexed_rows: usize,
}

impl Default for InvertedIndex {
    fn default() -> Self {
        InvertedIndex {
            postings: HashMap::new(),
            delta_adds: HashMap::new(),
            delta_removes: HashMap::new(),
            pending: 0,
            compact_threshold: DEFAULT_COMPACT_THRESHOLD,
            applied_epoch: 0,
            compactions: 0,
            indexed_rows: 0,
        }
    }
}

/// The distinct normalized terms of one row's text columns.
fn row_terms(row: &Row, text_cols: &[usize]) -> Vec<String> {
    let mut terms: Vec<String> = Vec::new();
    for &c in text_cols {
        if let Some(s) = row[c].as_text() {
            terms.extend(tokenize(s));
        }
    }
    terms.sort_unstable();
    terms.dedup();
    terms
}

/// Removes `(term, table, rid)` from a delta map if present, pruning empty
/// levels. Returns whether a pending pair was cancelled.
fn cancel(
    map: &mut HashMap<String, HashMap<TableId, Vec<RowId>>>,
    term: &str,
    table: TableId,
    rid: RowId,
) -> bool {
    let Some(by_table) = map.get_mut(term) else { return false };
    let Some(list) = by_table.get_mut(&table) else { return false };
    let Ok(pos) = list.binary_search(&rid) else { return false };
    list.remove(pos);
    if list.is_empty() {
        by_table.remove(&table);
    }
    if by_table.is_empty() {
        map.remove(term);
    }
    true
}

impl InvertedIndex {
    /// Builds the index over every text column of every table in `db`,
    /// synchronized to the database's current epoch. Tombstoned rows are
    /// excluded (the table iterator skips them).
    pub fn build(db: &Database) -> Self {
        // term → table → rows (dedup within a row across columns).
        let mut map: HashMap<String, HashMap<TableId, Vec<RowId>>> = HashMap::new();
        let mut indexed_rows = 0usize;
        for (tid, table) in db.tables() {
            let text_cols = table.schema().text_columns();
            if text_cols.is_empty() {
                continue;
            }
            for (rid, row) in table.iter() {
                indexed_rows += 1;
                for term in row_terms(row, &text_cols) {
                    map.entry(term).or_default().entry(tid).or_default().push(rid);
                }
            }
        }
        let postings = map
            .into_iter()
            .map(|(term, by_table)| {
                let mut lists: Vec<(TableId, Vec<RowId>)> = by_table.into_iter().collect();
                lists.sort_unstable_by_key(|(t, _)| *t);
                // Rows were visited in ascending rid order, so lists are sorted.
                (term, lists)
            })
            .collect();
        InvertedIndex {
            postings,
            indexed_rows,
            applied_epoch: db.epoch(),
            ..InvertedIndex::default()
        }
    }

    /// Absorbs every database delta recorded after this index's
    /// [`InvertedIndex::applied_epoch`] into the delta postings, then
    /// compacts if the pending volume crossed the threshold. Idempotent when
    /// already current. `db` must be the same database (same lineage) the
    /// index was built from.
    pub fn apply_deltas(&mut self, db: &Database) {
        for d in db.deltas_since(self.applied_epoch) {
            let table = db.table(d.table);
            let text_cols = table.schema().text_columns();
            if text_cols.is_empty() {
                continue;
            }
            match d.kind {
                DeltaKind::Append => {
                    for &rid in &d.rows {
                        self.indexed_rows += 1;
                        for term in row_terms(table.row(rid), &text_cols) {
                            self.record_add(term, d.table, rid);
                        }
                    }
                }
                DeltaKind::Update => {
                    for (rid, old) in &d.old {
                        let old_terms = row_terms(old, &text_cols);
                        let new_terms = row_terms(table.row(*rid), &text_cols);
                        for t in &old_terms {
                            if new_terms.binary_search(t).is_err() {
                                self.record_remove(t.clone(), d.table, *rid);
                            }
                        }
                        for t in new_terms {
                            if old_terms.binary_search(&t).is_err() {
                                self.record_add(t, d.table, *rid);
                            }
                        }
                    }
                }
                DeltaKind::Delete => {
                    for (rid, old) in &d.old {
                        self.indexed_rows -= 1;
                        for term in row_terms(old, &text_cols) {
                            self.record_remove(term, d.table, *rid);
                        }
                    }
                }
            }
        }
        self.applied_epoch = db.epoch();
        if self.pending >= self.compact_threshold {
            self.compact();
        }
    }

    fn record_add(&mut self, term: String, table: TableId, rid: RowId) {
        if cancel(&mut self.delta_removes, &term, table, rid) {
            self.pending -= 1;
            return;
        }
        let list = self.delta_adds.entry(term).or_default().entry(table).or_default();
        if let Err(pos) = list.binary_search(&rid) {
            list.insert(pos, rid);
            self.pending += 1;
        }
    }

    fn record_remove(&mut self, term: String, table: TableId, rid: RowId) {
        if cancel(&mut self.delta_adds, &term, table, rid) {
            self.pending -= 1;
            return;
        }
        let list = self.delta_removes.entry(term).or_default().entry(table).or_default();
        if let Err(pos) = list.binary_search(&rid) {
            list.insert(pos, rid);
            self.pending += 1;
        }
    }

    /// Folds all pending delta postings into the base — a partial rebuild
    /// touching only dirtied terms. No-op when nothing is pending.
    pub fn compact(&mut self) {
        if self.delta_adds.is_empty() && self.delta_removes.is_empty() {
            return;
        }
        for (term, by_table) in std::mem::take(&mut self.delta_removes) {
            let Some(lists) = self.postings.get_mut(&term) else { continue };
            for (tid, rids) in by_table {
                if let Ok(i) = lists.binary_search_by_key(&tid, |(t, _)| *t) {
                    lists[i].1.retain(|r| rids.binary_search(r).is_err());
                    if lists[i].1.is_empty() {
                        lists.remove(i);
                    }
                }
            }
            if lists.is_empty() {
                self.postings.remove(&term);
            }
        }
        for (term, by_table) in std::mem::take(&mut self.delta_adds) {
            let lists = self.postings.entry(term).or_default();
            for (tid, rids) in by_table {
                match lists.binary_search_by_key(&tid, |(t, _)| *t) {
                    Ok(i) => {
                        let l = &mut lists[i].1;
                        for r in rids {
                            if let Err(p) = l.binary_search(&r) {
                                l.insert(p, r);
                            }
                        }
                    }
                    Err(i) => lists.insert(i, (tid, rids)),
                }
            }
        }
        self.pending = 0;
        self.compactions += 1;
    }

    /// Sets how many pending delta rows trigger a compaction at the end of
    /// [`InvertedIndex::apply_deltas`].
    pub fn set_compaction_threshold(&mut self, pending_rows: usize) {
        self.compact_threshold = pending_rows.max(1);
    }

    /// The database epoch this index has fully absorbed.
    pub fn applied_epoch(&self) -> u64 {
        self.applied_epoch
    }

    /// Lifetime number of compactions performed.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Pending (term, row) delta pairs not yet compacted into the base.
    pub fn pending_delta_rows(&self) -> usize {
        self.pending
    }

    /// Base posting list for a normalized term and table (no delta merge).
    fn base_rows(&self, needle: &str, table: TableId) -> &[RowId] {
        self.postings
            .get(needle)
            .and_then(|lists| {
                lists
                    .binary_search_by_key(&table, |(t, _)| *t)
                    .ok()
                    .map(|i| lists[i].1.as_slice())
            })
            .unwrap_or(&[])
    }

    /// Merged (base ∪ adds) \ removes view for a normalized term and table.
    /// Borrowed when the term is clean, owned (one merge) when dirtied.
    fn merged_rows(&self, needle: &str, table: TableId) -> Cow<'_, [RowId]> {
        let base = self.base_rows(needle, table);
        let adds = self
            .delta_adds
            .get(needle)
            .and_then(|m| m.get(&table))
            .map_or(&[][..], Vec::as_slice);
        let removes = self
            .delta_removes
            .get(needle)
            .and_then(|m| m.get(&table))
            .map_or(&[][..], Vec::as_slice);
        if adds.is_empty() && removes.is_empty() {
            return Cow::Borrowed(base);
        }
        let mut merged = Vec::with_capacity(base.len() + adds.len());
        let (mut i, mut j) = (0, 0);
        while i < base.len() || j < adds.len() {
            let next = match (base.get(i), adds.get(j)) {
                (Some(&a), Some(&b)) if a <= b => {
                    if a == b {
                        j += 1;
                    }
                    i += 1;
                    a
                }
                (Some(&a), None) => {
                    i += 1;
                    a
                }
                (_, Some(&b)) => {
                    j += 1;
                    b
                }
                (None, None) => unreachable!("loop condition"),
            };
            if removes.binary_search(&next).is_err() {
                merged.push(next);
            }
        }
        Cow::Owned(merged)
    }

    /// Whether a normalized term has pending deltas in any table.
    fn term_dirty(&self, needle: &str) -> bool {
        self.delta_adds.contains_key(needle) || self.delta_removes.contains_key(needle)
    }

    /// Tables whose text contains the term (whole-token match), ascending.
    pub fn tables_containing(&self, term: &str) -> Vec<TableId> {
        let needle = normalize(term);
        let base = self.postings.get(&needle);
        if !self.term_dirty(&needle) {
            return base.map(|lists| lists.iter().map(|(t, _)| *t).collect()).unwrap_or_default();
        }
        let mut candidates: Vec<TableId> =
            base.map(|lists| lists.iter().map(|(t, _)| *t).collect()).unwrap_or_default();
        if let Some(by_table) = self.delta_adds.get(&needle) {
            candidates.extend(by_table.keys().copied());
        }
        candidates.sort_unstable();
        candidates.dedup();
        candidates.retain(|&t| !self.merged_rows(&needle, t).is_empty());
        candidates
    }

    /// Sorted row ids of `table` containing the term; empty if none.
    /// `Cow::Borrowed` when the term has no pending deltas; `Cow::Owned`
    /// (a merge-on-read) when it does.
    pub fn rows_containing(&self, table: TableId, term: &str) -> Cow<'_, [RowId]> {
        let needle = normalize(term);
        self.merged_rows(&needle, table)
    }

    /// Whether the term occurs anywhere in the database.
    pub fn contains_term(&self, term: &str) -> bool {
        let needle = normalize(term);
        if !self.term_dirty(&needle) {
            return self.postings.contains_key(&needle);
        }
        !self.tables_containing(term).is_empty()
    }

    /// Number of distinct indexed terms. Terms whose every posting was
    /// delta-removed still count until the next compaction.
    pub fn term_count(&self) -> usize {
        self.postings.len()
            + self.delta_adds.keys().filter(|t| !self.postings.contains_key(*t)).count()
    }

    /// Number of live (table, row) pairs the index covers.
    pub fn indexed_rows(&self) -> usize {
        self.indexed_rows
    }

    /// Document frequency of a term in one table.
    pub fn doc_frequency(&self, table: TableId, term: &str) -> usize {
        self.rows_containing(table, term).len()
    }
}

/// Queries arrive as raw user keywords; normalize them through the same
/// tokenizer so "Saffron," and "saffron" meet in the index. A multi-token
/// input keeps only its first token (keywords are single terms in the paper).
fn normalize(term: &str) -> String {
    tokenize(term).into_iter().next().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use relengine::{DataType, DatabaseBuilder, Value};

    fn db() -> Database {
        let mut b = DatabaseBuilder::new();
        b.table("person")
            .column("id", DataType::Int)
            .column("name", DataType::Text);
        b.table("pub")
            .column("id", DataType::Int)
            .column("title", DataType::Text)
            .column("abstract", DataType::Text);
        b.table("writes")
            .column("pid", DataType::Int)
            .column("pubid", DataType::Int);
        let mut db = b.finish().unwrap();
        db.insert_values("person", vec![Value::Int(1), Value::text("Jennifer Widom")]).unwrap();
        db.insert_values("person", vec![Value::Int(2), Value::text("David DeWitt")]).unwrap();
        db.insert_values(
            "pub",
            vec![
                Value::Int(1),
                Value::text("Trio: A System for Data Uncertainty"),
                Value::text("we present trio, managing uncertainty and lineage"),
            ],
        )
        .unwrap();
        db.insert_values(
            "pub",
            vec![Value::Int(2), Value::text("Keyword Search in Databases"), Value::Null],
        )
        .unwrap();
        db.insert_values("writes", vec![Value::Int(1), Value::Int(1)]).unwrap();
        db
    }

    #[test]
    fn tables_containing_terms() {
        let idx = InvertedIndex::build(&db());
        assert_eq!(idx.tables_containing("widom"), vec![0]);
        assert_eq!(idx.tables_containing("trio"), vec![1]);
        assert_eq!(idx.tables_containing("keyword"), vec![1]);
        assert!(idx.tables_containing("nonexistent").is_empty());
    }

    #[test]
    fn case_and_punctuation_insensitive_lookup() {
        let idx = InvertedIndex::build(&db());
        assert_eq!(idx.tables_containing("WIDOM"), vec![0]);
        assert_eq!(idx.tables_containing("Trio,"), vec![1]);
    }

    #[test]
    fn rows_containing_and_dedup_across_columns() {
        let idx = InvertedIndex::build(&db());
        // "trio" appears in both title and abstract of pub row 0: one posting.
        assert_eq!(&idx.rows_containing(1, "trio")[..], &[0]);
        assert_eq!(&idx.rows_containing(1, "keyword")[..], &[1]);
        assert_eq!(&idx.rows_containing(0, "trio")[..], &[] as &[RowId]);
        assert_eq!(idx.doc_frequency(1, "trio"), 1);
    }

    #[test]
    fn relationship_tables_not_indexed() {
        let idx = InvertedIndex::build(&db());
        // 2 person + 2 pub rows indexed; writes has no text columns.
        assert_eq!(idx.indexed_rows(), 4);
        assert!(idx.tables_containing("1").is_empty());
    }

    #[test]
    fn contains_term() {
        let idx = InvertedIndex::build(&db());
        assert!(idx.contains_term("uncertainty"));
        assert!(!idx.contains_term("zanzibar"));
        assert!(idx.term_count() > 5);
    }

    #[test]
    fn null_text_skipped() {
        let idx = InvertedIndex::build(&db());
        // pub row 1 has NULL abstract; still indexed via its title.
        assert_eq!(&idx.rows_containing(1, "databases")[..], &[1]);
    }

    #[test]
    fn empty_database() {
        let db = DatabaseBuilder::new().finish().unwrap();
        let idx = InvertedIndex::build(&db);
        assert_eq!(idx.term_count(), 0);
        assert!(!idx.contains_term("x"));
    }
}

#[cfg(test)]
mod delta_tests {
    use super::*;
    use relengine::{DataType, DatabaseBuilder, Value};

    fn db() -> Database {
        let mut b = DatabaseBuilder::new();
        b.table("doc").column("id", DataType::Int).column("body", DataType::Text);
        let mut db = b.finish().unwrap();
        db.insert_values("doc", vec![Value::Int(1), Value::text("alpha beta")]).unwrap();
        db.insert_values("doc", vec![Value::Int(2), Value::text("beta gamma")]).unwrap();
        db.finalize();
        db
    }

    /// The invariant every mutation path must keep: merged reads equal a
    /// fresh rebuild of the mutated database.
    fn assert_matches_rebuild(idx: &InvertedIndex, db: &Database) {
        let fresh = InvertedIndex::build(db);
        for term in ["alpha", "beta", "gamma", "delta", "omega"] {
            assert_eq!(
                &idx.rows_containing(0, term)[..],
                &fresh.rows_containing(0, term)[..],
                "term `{term}` diverged from rebuild"
            );
            assert_eq!(
                idx.tables_containing(term),
                fresh.tables_containing(term),
                "tables for `{term}` diverged"
            );
            assert_eq!(idx.contains_term(term), fresh.contains_term(term));
        }
        assert_eq!(idx.indexed_rows(), fresh.indexed_rows());
    }

    #[test]
    fn append_merges_on_read() {
        let mut db = db();
        let mut idx = InvertedIndex::build(&db);
        db.append_rows(0, vec![vec![Value::Int(3), Value::text("alpha delta")]]).unwrap();
        idx.apply_deltas(&db);
        assert_eq!(idx.applied_epoch(), 1);
        let rows = idx.rows_containing(0, "alpha");
        assert!(matches!(rows, Cow::Owned(_)), "dirtied term merges on read");
        assert_eq!(&rows[..], &[0, 2]);
        let clean = idx.rows_containing(0, "gamma");
        assert!(matches!(clean, Cow::Borrowed(_)), "clean term stays borrowed");
        assert_matches_rebuild(&idx, &db);
    }

    #[test]
    fn update_moves_terms() {
        let mut db = db();
        let mut idx = InvertedIndex::build(&db);
        db.update_row(0, 0, vec![Value::Int(1), Value::text("alpha omega")]).unwrap();
        idx.apply_deltas(&db);
        assert_eq!(&idx.rows_containing(0, "beta")[..], &[1], "old term removed");
        assert_eq!(&idx.rows_containing(0, "omega")[..], &[0], "new term added");
        assert_eq!(&idx.rows_containing(0, "alpha")[..], &[0], "kept term untouched");
        assert_matches_rebuild(&idx, &db);
    }

    #[test]
    fn delete_removes_terms_everywhere() {
        let mut db = db();
        let mut idx = InvertedIndex::build(&db);
        db.delete_row(0, 1).unwrap();
        idx.apply_deltas(&db);
        assert_eq!(&idx.rows_containing(0, "beta")[..], &[0]);
        assert!(!idx.contains_term("gamma"), "term fully removed");
        assert!(idx.tables_containing("gamma").is_empty());
        assert_matches_rebuild(&idx, &db);
    }

    #[test]
    fn add_then_delete_cancels_pending() {
        let mut db = db();
        let mut idx = InvertedIndex::build(&db);
        let ids = db
            .append_rows(0, vec![vec![Value::Int(3), Value::text("theta")]])
            .unwrap();
        db.delete_row(0, ids[0]).unwrap();
        idx.apply_deltas(&db);
        assert_eq!(idx.pending_delta_rows(), 0, "add+delete cancels out");
        assert!(!idx.contains_term("theta"));
        assert_matches_rebuild(&idx, &db);
    }

    #[test]
    fn threshold_compaction_rewrites_base() {
        let mut db = db();
        let mut idx = InvertedIndex::build(&db);
        idx.set_compaction_threshold(4);
        db.append_rows(0, vec![vec![Value::Int(3), Value::text("alpha")]]).unwrap();
        idx.apply_deltas(&db);
        assert_eq!(idx.compactions(), 0, "below threshold: still delta");
        assert!(idx.pending_delta_rows() > 0);
        db.append_rows(
            0,
            vec![
                vec![Value::Int(4), Value::text("beta gamma")],
                vec![Value::Int(5), Value::text("delta epsilon")],
            ],
        )
        .unwrap();
        db.delete_row(0, 0).unwrap();
        idx.apply_deltas(&db);
        assert_eq!(idx.compactions(), 1, "threshold crossed: compacted");
        assert_eq!(idx.pending_delta_rows(), 0);
        let rows = idx.rows_containing(0, "alpha");
        assert!(matches!(rows, Cow::Borrowed(_)), "compaction restores borrowed reads");
        assert_eq!(&rows[..], &[2]);
        assert_matches_rebuild(&idx, &db);
    }

    #[test]
    fn apply_is_incremental_and_idempotent() {
        let mut db = db();
        let mut idx = InvertedIndex::build(&db);
        db.append_rows(0, vec![vec![Value::Int(3), Value::text("zeta")]]).unwrap();
        idx.apply_deltas(&db);
        idx.apply_deltas(&db); // no-op: already at the current epoch
        assert_eq!(&idx.rows_containing(0, "zeta")[..], &[2]);
        assert_eq!(idx.applied_epoch(), db.epoch());
        db.update_row(0, 2, vec![Value::Int(3), Value::text("eta")]).unwrap();
        idx.apply_deltas(&db);
        assert!(!idx.contains_term("zeta"));
        assert_eq!(&idx.rows_containing(0, "eta")[..], &[2]);
        assert_matches_rebuild(&idx, &db);
    }
}

impl InvertedIndex {
    /// Sorted row ids of `table` containing **all** the given terms
    /// (conjunctive tuple-set semantics, DISCOVER's `R^{k1,k2}`). Posting
    /// lists are intersected smallest-first; an unknown term short-circuits
    /// to empty. With no terms, returns `None` (the free tuple set — every
    /// row — is not materialized).
    pub fn rows_containing_all(&self, table: TableId, terms: &[&str]) -> Option<Vec<RowId>> {
        if terms.is_empty() {
            return None;
        }
        let mut lists: Vec<Cow<'_, [RowId]>> =
            terms.iter().map(|t| self.rows_containing(table, t)).collect();
        lists.sort_unstable_by_key(|l| l.len());
        let mut result: Vec<RowId> = lists[0].to_vec();
        for list in &lists[1..] {
            if result.is_empty() {
                break;
            }
            result.retain(|rid| list.binary_search(rid).is_ok());
        }
        Some(result)
    }

    /// Tables containing **all** the given terms (in possibly different
    /// rows), ascending. Empty input means every table qualifies vacuously —
    /// returns empty instead to avoid surprises.
    pub fn tables_containing_all(&self, terms: &[&str]) -> Vec<TableId> {
        let mut iter = terms.iter();
        let Some(first) = iter.next() else { return Vec::new() };
        let mut tables = self.tables_containing(first);
        for t in iter {
            let next = self.tables_containing(t);
            tables.retain(|x| next.binary_search(x).is_ok());
        }
        tables
    }
}

#[cfg(test)]
mod multiterm_tests {
    use super::*;
    use relengine::{DataType, DatabaseBuilder, Value};

    fn index() -> InvertedIndex {
        let mut b = DatabaseBuilder::new();
        b.table("topic").column("id", DataType::Int).column("name", DataType::Text);
        b.table("pub").column("id", DataType::Int).column("title", DataType::Text);
        let mut db = b.finish().unwrap();
        for (id, name) in [
            (1, "Probabilistic Data"),
            (2, "Stream Data"),
            (3, "Histograms"),
            (4, "Probabilistic Streams"),
        ] {
            db.insert_values("topic", vec![Value::Int(id), Value::text(name)]).unwrap();
        }
        db.insert_values("pub", vec![Value::Int(1), Value::text("Data Sketches")]).unwrap();
        InvertedIndex::build(&db)
    }

    #[test]
    fn conjunctive_rows() {
        let idx = index();
        assert_eq!(
            idx.rows_containing_all(0, &["probabilistic", "data"]).unwrap(),
            vec![0]
        );
        assert_eq!(idx.rows_containing_all(0, &["data"]).unwrap(), vec![0, 1]);
        assert!(idx.rows_containing_all(0, &["data", "histograms"]).unwrap().is_empty());
        assert!(idx.rows_containing_all(0, &["zzz"]).unwrap().is_empty());
        assert!(idx.rows_containing_all(0, &[]).is_none());
    }

    #[test]
    fn conjunctive_tables() {
        let idx = index();
        assert_eq!(idx.tables_containing_all(&["data"]), vec![0, 1]);
        assert_eq!(idx.tables_containing_all(&["data", "probabilistic"]), vec![0]);
        assert!(idx.tables_containing_all(&["data", "zzz"]).is_empty());
        assert!(idx.tables_containing_all(&[]).is_empty());
    }
}
