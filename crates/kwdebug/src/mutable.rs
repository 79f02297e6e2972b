//! Mutable-database coordinator: the single writer over the epoch-stamped
//! stack.
//!
//! Everything below the debugger treats a database as an immutable snapshot:
//! probes pin the epoch of the `&Database` they borrow, cache entries are
//! stamped with the epoch they were computed at, and the inverted index
//! serves merge-on-read views synchronized to an applied epoch. This module
//! is the one place writes are allowed to happen, and its job is ordering:
//! every write flows
//!
//! 1. into the [`Database`] (which bumps the epoch and records an
//!    [`relengine::EpochDelta`] dirty set),
//! 2. through [`InvertedIndex::apply_deltas`] (incremental delta postings,
//!    threshold compaction — never a drop-and-rebuild),
//! 3. through [`EvalCache::invalidate`] (selective eviction of exactly
//!    the entries the delta's dirty sets can have changed).
//!
//! Readers never observe a torn state because the coordinator only mutates
//! while it holds the **only** reference to the snapshot: a write with
//! outstanding [`SharedParts`] handles or sessions is refused with
//! [`KwError::BadConfig`] rather than silently forking the database
//! (a [`Database`] clone gets a fresh `db_id`, which would orphan every
//! cache entry). Quiesce — drop sessions — write — re-issue parts: epochs
//! stay monotonic and the `(db_id, epoch)` cache identity stays continuous,
//! which is what makes warm-cache incremental maintenance beat rebuilding
//! the world (benchmarked by E19, `exp_mutate`).
//!
//! Schema is fixed for the lifetime of the coordinator (writes are DML
//! only), so the [`SchemaGraph`] and the offline [`Lattice`] — both pure
//! functions of the schema — are built once and never refreshed.

use std::sync::Arc;

use relengine::{Database, RowId, TableId, Value};
use textindex::InvertedIndex;

use crate::debugger::{DebugConfig, NonAnswerDebugger, SharedParts};
use crate::error::KwError;
use crate::estimate::OnlinePa;
use crate::evalcache::EvalCache;
use crate::lattice::Lattice;
use crate::schema_graph::SchemaGraph;

/// A database plus its derived read structures under single-writer mutation.
///
/// See the [module docs](crate::mutable) for the write-path contract. Debug
/// sessions are built over snapshots: [`MutableDatabase::parts`] hands out a
/// [`SharedParts`] pinned at the current epoch, and
/// [`MutableDatabase::session`] is the one-call shortcut.
pub struct MutableDatabase {
    db: Arc<Database>,
    index: Arc<InvertedIndex>,
    graph: Arc<SchemaGraph>,
    lattice: Arc<Lattice>,
    /// The process-wide evaluation cache kept epoch-current by the write
    /// path, when sharing is enabled (`None` = sessions get private caches,
    /// each stamped at its snapshot's epoch).
    shared_cache: Option<Arc<EvalCache>>,
    /// Cross-epoch online `p_a` estimator. Verdict statistics survive writes
    /// deliberately: they only ever tune the score-based heuristic's probe
    /// order, never its output, so slightly-stale priors are harmless.
    pa_stats: Arc<OnlinePa>,
}

impl MutableDatabase {
    /// Builds the coordinator over `db`: finalizes it, builds the inverted
    /// index, the schema graph and the offline lattice for `max_joins`.
    pub fn new(mut db: Database, max_joins: usize) -> Result<Self, KwError> {
        if max_joins > 12 {
            return Err(KwError::BadConfig(format!(
                "max_joins = {max_joins} would generate an intractably large lattice"
            )));
        }
        db.finalize();
        let index = InvertedIndex::build(&db);
        let graph = SchemaGraph::new(&db);
        let lattice = Lattice::build(&db, &graph, max_joins);
        Ok(MutableDatabase {
            db: Arc::new(db),
            index: Arc::new(index),
            graph: Arc::new(graph),
            lattice: Arc::new(lattice),
            shared_cache: None,
            pa_stats: Arc::new(OnlinePa::new()),
        })
    }

    /// The current database snapshot.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The inverted index, synchronized to [`MutableDatabase::epoch`].
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The current epoch (bumped by every successful write).
    pub fn epoch(&self) -> u64 {
        self.db.epoch()
    }

    /// Process-unique id of the coordinated database.
    pub fn db_id(&self) -> u64 {
        self.db.db_id()
    }

    /// Resolves a table name to its id.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.db.table_id(name)
    }

    /// Creates and attaches a shared [`EvalCache`] stamped with the current
    /// `(db_id, epoch)` identity, bounded by `budget_bytes` payload bytes
    /// (`None` = unbounded). The write path keeps it epoch-current from then
    /// on; sessions built from later [`MutableDatabase::parts`] share it.
    pub fn share_eval_cache(&mut self, budget_bytes: Option<u64>) -> Arc<EvalCache> {
        let cache =
            Arc::new(EvalCache::with_identity(self.db.db_id(), self.db.epoch(), budget_bytes));
        self.shared_cache = Some(Arc::clone(&cache));
        cache
    }

    /// The attached shared cache, if any.
    pub fn shared_cache(&self) -> Option<&Arc<EvalCache>> {
        self.shared_cache.as_ref()
    }

    /// Sets the pending-row threshold at which the index folds delta
    /// postings into its base (see
    /// [`InvertedIndex::set_compaction_threshold`]).
    pub fn set_compaction_threshold(&mut self, pending_rows: usize) {
        self.index_mut().set_compaction_threshold(pending_rows);
    }

    /// Appends `rows` to `table`, returning their new row ids. One epoch per
    /// call; the index and the shared cache are current when this returns.
    pub fn append_rows(
        &mut self,
        table: TableId,
        rows: Vec<Vec<Value>>,
    ) -> Result<Vec<RowId>, KwError> {
        let ids = self.db_mut()?.append_rows(table, rows)?;
        self.sync();
        Ok(ids)
    }

    /// Replaces row `id` of `table` in place, returning the new epoch.
    pub fn update_row(
        &mut self,
        table: TableId,
        id: RowId,
        values: Vec<Value>,
    ) -> Result<u64, KwError> {
        self.db_mut()?.update_row(table, id, values)?;
        self.sync();
        Ok(self.db.epoch())
    }

    /// Tombstones row `id` of `table`, returning the new epoch. Row ids are
    /// positional and never reused, so surviving ids are unchanged.
    pub fn delete_row(&mut self, table: TableId, id: RowId) -> Result<u64, KwError> {
        self.db_mut()?.delete_row(table, id)?;
        self.sync();
        Ok(self.db.epoch())
    }

    /// A [`SharedParts`] snapshot pinned at the current epoch. Sessions built
    /// from it (and the handle itself) block writes until dropped — the
    /// single-writer contract.
    pub fn parts(&self) -> SharedParts {
        SharedParts::assemble(
            Arc::clone(&self.db),
            Arc::clone(&self.index),
            Arc::clone(&self.graph),
            Arc::clone(&self.lattice),
            self.shared_cache.clone(),
            Arc::clone(&self.pa_stats),
        )
    }

    /// Builds a debug session over the current snapshot
    /// ([`NonAnswerDebugger::from_shared`] over [`MutableDatabase::parts`]).
    /// `config.max_joins` must match the lattice this coordinator was built
    /// with.
    pub fn session(&self, config: DebugConfig) -> Result<NonAnswerDebugger, KwError> {
        NonAnswerDebugger::from_shared(self.parts(), config)
    }

    /// Exclusive access to the database, or a refusal while snapshots are
    /// outstanding.
    fn db_mut(&mut self) -> Result<&mut Database, KwError> {
        Arc::get_mut(&mut self.db).ok_or_else(|| {
            KwError::BadConfig(
                "database snapshot has outstanding holders; \
                 drop sessions and parts before writing"
                    .into(),
            )
        })
    }

    /// Exclusive access to the index. Snapshot holders always hold the
    /// database too, so after a successful [`MutableDatabase::db_mut`] this
    /// is uncontended; the clone fallback covers any other holder.
    fn index_mut(&mut self) -> &mut InvertedIndex {
        if Arc::get_mut(&mut self.index).is_none() {
            self.index = Arc::new((*self.index).clone());
        }
        Arc::get_mut(&mut self.index).expect("index arc is uniquely held")
    }

    /// Brings the derived read structures up to the database's epoch: the
    /// index absorbs pending deltas, then the shared cache (if any) evicts
    /// what those deltas dirtied. Order matters — the cache's recomputation
    /// path reads the index, so the index must already be current.
    fn sync(&mut self) {
        let db = Arc::clone(&self.db);
        self.index_mut().apply_deltas(&db);
        if let Some(cache) = &self.shared_cache {
            cache.invalidate(&db);
        }
    }
}

impl std::fmt::Debug for MutableDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MutableDatabase")
            .field("db_id", &self.db.db_id())
            .field("epoch", &self.db.epoch())
            .field("tables", &self.db.table_count())
            .field("pending_delta_rows", &self.index.pending_delta_rows())
            .field("compactions", &self.index.compactions())
            .field("shared_cache", &self.shared_cache.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relengine::{DataType, DatabaseBuilder};

    /// color ← item: one saffron color, one candle item pointing at red.
    fn db() -> Database {
        let mut b = DatabaseBuilder::new();
        b.table("color").column("id", DataType::Int).column("name", DataType::Text)
            .primary_key("id");
        b.table("item")
            .column("id", DataType::Int)
            .column("name", DataType::Text)
            .column("color_id", DataType::Int)
            .primary_key("id");
        b.foreign_key("item", "color_id", "color", "id").unwrap();
        let mut db = b.finish().unwrap();
        db.insert_values("color", vec![Value::Int(1), Value::text("saffron")]).unwrap();
        db.insert_values("color", vec![Value::Int(2), Value::text("red")]).unwrap();
        db.insert_values(
            "item",
            vec![Value::Int(1), Value::text("wax candle"), Value::Int(2)],
        )
        .unwrap();
        db
    }

    fn config() -> DebugConfig {
        DebugConfig { max_joins: 2, eval_cache: true, ..DebugConfig::default() }
    }

    #[test]
    fn writes_flow_through_index_and_cache() {
        let mut m = MutableDatabase::new(db(), 2).unwrap();
        let store = m.share_eval_cache(None);
        assert_eq!(m.epoch(), 0);

        // Warm the cache: "saffron candle" is a non-answer.
        let before = m.session(config()).unwrap().debug("saffron candle").unwrap();
        assert_eq!(before.non_answer_count(), 1);
        assert!(store.bytes() > 0, "session warmed the shared store");

        // Append a candle pointing at the saffron color; the non-answer must
        // become an answer (through the join — the new text itself does not
        // mention saffron, so the interpretation set stays put).
        let item = m.table_id("item").unwrap();
        let ids = m
            .append_rows(
                item,
                vec![vec![Value::Int(2), Value::text("glow candle"), Value::Int(1)]],
            )
            .unwrap();
        assert_eq!(ids, vec![1]);
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.index().applied_epoch(), 1, "index absorbed the delta");
        assert_eq!(store.epoch(), 1, "cache re-pinned to the new epoch");
        assert!(store.invalidated() > 0, "dirtied entries evicted");

        let after = m.session(config()).unwrap().debug("saffron candle").unwrap();
        assert_eq!(after.answer_count(), 1, "the appended row answers the query");
        assert_eq!(after.non_answer_count(), 0);
    }

    #[test]
    fn delete_kills_an_answer() {
        let mut m = MutableDatabase::new(db(), 2).unwrap();
        m.share_eval_cache(None);
        let item = m.table_id("item").unwrap();
        // A second candle keeps the keyword mapped after the delete below.
        m.append_rows(
            item,
            vec![vec![Value::Int(2), Value::text("brass candle holder"), Value::Int(1)]],
        )
        .unwrap();
        let before = m.session(config()).unwrap().debug("red candle").unwrap();
        assert_eq!(before.answer_count(), 1);

        m.delete_row(item, 0).unwrap();
        let after = m.session(config()).unwrap().debug("red candle").unwrap();
        assert_eq!(after.answer_count(), 0, "deleted row no longer joins");
        assert_eq!(after.non_answer_count(), 1);
    }

    #[test]
    fn update_moves_a_keyword() {
        let mut m = MutableDatabase::new(db(), 2).unwrap();
        m.share_eval_cache(None);
        let item = m.table_id("item").unwrap();
        // Re-point the candle from red to saffron.
        let epoch = m
            .update_row(
                item,
                0,
                vec![Value::Int(1), Value::text("wax candle"), Value::Int(1)],
            )
            .unwrap();
        assert_eq!(epoch, 1);
        let r = m.session(config()).unwrap().debug("saffron candle").unwrap();
        assert_eq!(r.answer_count(), 1);
    }

    #[test]
    fn writes_refused_while_snapshots_outstanding() {
        let mut m = MutableDatabase::new(db(), 2).unwrap();
        let session = m.session(config()).unwrap();
        let item = m.table_id("item").unwrap();
        let err = m.delete_row(item, 0);
        assert!(matches!(err, Err(KwError::BadConfig(_))), "live session blocks writes");
        drop(session);
        m.delete_row(item, 0).expect("write proceeds once quiesced");
        assert_eq!(m.epoch(), 1);
    }

    #[test]
    fn reports_match_a_fresh_debugger_after_mutations() {
        let mut m = MutableDatabase::new(db(), 2).unwrap();
        m.share_eval_cache(None);
        let item = m.table_id("item").unwrap();
        let color = m.table_id("color").unwrap();
        // Warm, mutate, warm again — entries from epoch 0 survive exactly
        // when clean.
        m.session(config()).unwrap().debug("saffron candle").unwrap();
        m.append_rows(color, vec![vec![Value::Int(3), Value::text("teal")]]).unwrap();
        m.append_rows(
            item,
            vec![vec![Value::Int(2), Value::text("teal candle"), Value::Int(3)]],
        )
        .unwrap();
        m.delete_row(item, 0).unwrap();

        let fresh = NonAnswerDebugger::new(m.database().clone(), config()).unwrap();
        for q in ["saffron candle", "teal candle", "red candle"] {
            let a = m.session(config()).unwrap().debug(q).unwrap();
            let b = fresh.debug(q).unwrap();
            assert_eq!(a.answer_count(), b.answer_count(), "{q}");
            assert_eq!(a.non_answer_count(), b.non_answer_count(), "{q}");
            assert_eq!(a.mpan_count(), b.mpan_count(), "{q}");
        }
    }
}
