//! Cross-probe evaluation cache: one [`EvalCache`] behind an `Arc`, held by
//! a single session or shared by every session of a process.
//!
//! Every aliveness probe of a debug session runs against one epoch-stamped
//! snapshot of the database, and the probed networks are subtrees of the same
//! MTNs — so most of the work of one probe is a verbatim replay of another's.
//! This module caches that work at three levels, below the node-id
//! memo/R1/R2 reuse:
//!
//! * **Selection cache** (layer 1) — `(table, keyword text)` → the sorted
//!   row ids satisfying the keyword's containment predicate. Computed once
//!   per epoch; every later probe attaches the shared selection to its plan
//!   node and the executor skips predicate evaluation for that node entirely.
//! * **Selection postings** (layer 1.5) — `(selection, join column)` → the
//!   selection's rows grouped by their value in that column, attached to
//!   plans as `PlanNode::col_postings` so the executor answers a
//!   selection's semi-joins without re-reading rows.
//! * **Verdict cache** (layer 3) — canonical binding key of a *whole*
//!   network ([`network_key`]; vertices labeled by table and bound keyword
//!   text, so copy numbers don't split entries) → its completed semi-join
//!   verdict.
//!   The memo answers repeats by lattice node id within one traversal; this
//!   layer answers them structurally, across traversals and (shared) across
//!   sessions: a probe whose exact bound network was ever fully reduced is
//!   answered — alive or dead — without touching the engine
//!   (`verdict_cache_hits`).
//!
//! Every key carries its keywords' text, never a store-local id, so the
//! verdict cache and the single-flight table of [`crate::batch`] name a
//! probe by the same bytes. Every entry's footprint counts its key's
//! keyword bytes, so [`EvalCache::bytes`] and the budget cover everything
//! resident.
//!
//! All maps are lock-striped so the sessions of a serving process that share
//! one cache ([`crate::debugger::SharedParts`]) do not serialize behind a
//! global lock. Entries are only
//! ever written from *completed* reductions (chaos faults fire before
//! execution and abort the probe, so a failed probe contributes nothing).
//!
//! ## The epoch contract (DESIGN.md §13, CACHING.md)
//!
//! The cache is keyed by **database identity**: the substrate's
//! [`Database::db_id`] (process-unique per build — a fresh database can never
//! alias a stale store) plus its monotonic write **epoch**. Every entry is
//! stamped with the epoch of the snapshot it was computed from, every lookup
//! and insert carries the calling session's *pin* epoch, and three rules keep
//! sharing sound under mutation:
//!
//! 1. **Read fence** — a lookup pinned at epoch `E` ignores entries stamped
//!    `E' > E`: a session attached before a write never observes state from
//!    after it mid-traversal.
//! 2. **Write fence** — an insert pinned at `E < ` the cache's current epoch
//!    is dropped (checked under the shard lock, after [`EvalCache::invalidate`]
//!    has published the new epoch): a straggler session cannot poison the
//!    store with results computed from superseded data.
//! 3. **Selective invalidation** — [`EvalCache::invalidate`] advances the
//!    cache to the database's current epoch and evicts exactly the entries the
//!    intervening [`relengine::EpochDelta`]s can have changed: selections
//!    whose keyword occurs (as a case-insensitive substring, matching the
//!    predicate) in any touched text value of their table; postings whose
//!    keyword is dirty in that sense or whose column was written; verdicts whose
//!    `tables_mask` intersects a written table (re-validation
//!    by recomputation — a dead network can come alive after an append, so a
//!    cached verdict over a written table proves nothing). Surviving entries
//!    keep their stamps and stay valid for both old-pin and new-pin readers.
//!
//! If the database's delta log no longer covers the cache's epoch (the log
//! was truncated), nothing can be proven clean and the store is purged.
//!
//! ## Process-wide sharing (DESIGN.md §12, CACHING.md)
//!
//! Under the serving layer most redundant probe work is *across* sessions —
//! tenants hitting overlapping keywords recompute each other's selections
//! and re-ask each other's networks. The `Arc<EvalCache>` a session would
//! hold privately becomes a process-wide store when
//! [`crate::debugger::SharedParts::share_eval_cache`] hands it to every
//! session, bounded by a **byte-budget LRU** so one
//! tenant's working set cannot blow out process memory for all. Every lookup
//! stamps the entry with a logical clock; when an insert pushes
//! [`EvalCache::bytes`] past the budget, least-recently-used entries are
//! evicted (and their bytes *returned* to the accounting — `bytes()` always
//! equals the sum of resident entry footprints, see
//! [`EvalCache::accounted_bytes`]) until the store fits again. Invalidation
//! rides the same removal path, so an entry the LRU already evicted is never
//! double-subtracted. Hits, misses, evictions and invalidations are counted
//! on the store itself, surfaced by the serving layer's `shared_cache_*`
//! metrics.
//!
//! Sharing never changes answers: the differential suites
//! (`tests/probe_cache_equivalence.rs`, `tests/shared_cache_equivalence.rs`,
//! `tests/mutation_equivalence.rs`) pin reports bit-identical with the cache
//! off, session-scoped, or shared — including across seeded mutations.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use relengine::sortedvals::ValuePostings;
use relengine::{ColId, DataType, Database, DeltaKind, RowId, TableId, Value};

use crate::canonical::{direction_aware_adjacency, rooted_subtree_key};
use crate::jnts::Jnts;

/// Number of lock stripes per layer.
const SHARDS: usize = 16;

/// Key of one cached selection: table, keyword text, and whether the
/// session restricts candidates through the inverted index (the cached rows
/// must equal the selection an uncached oracle builds, and that build
/// differs with index availability).
type SelectionKey = (TableId, String, bool);

/// The table-set bit of one table in a `tables_mask`: tables `0..63` get
/// their own bit, everything above shares bit 63 (a sound catch-all — masks
/// only ever *over*-approximate reachability).
pub fn table_mask_bit(table: TableId) -> u64 {
    1u64 << (table as u64).min(63)
}

/// The `tables_mask` of a whole network: the union of its vertices' table
/// bits. Stamped on verdict-cache entries so invalidation can evict exactly
/// the verdicts reachable from written tables.
pub fn network_mask(j: &Jnts) -> u64 {
    j.nodes().iter().fold(0, |m, ts| m | table_mask_bit(ts.table))
}

/// Whether an entry stamped `entry_epoch` may be served to a reader pinned
/// at `pin`: the entry must not come from a future snapshot. (Entries from
/// *past* epochs are safe — invalidation removed every entry a later write
/// dirtied, so a surviving old entry is bitwise what the reader's snapshot
/// would compute.)
fn visible(entry_epoch: u64, pin: u64) -> bool {
    entry_epoch <= pin
}

/// One resident cache entry: the shared value, its accounted footprint, the
/// logical-clock stamp of its last touch (insert or hit) driving LRU
/// eviction, the epoch of the snapshot it was computed from (read fence), and
/// the set of tables it was computed over (invalidation reachability).
struct Entry<V> {
    value: V,
    bytes: u64,
    stamp: u64,
    epoch: u64,
    mask: u64,
}

/// One cache layer: `SHARDS` independently locked maps from `K` to stamped
/// entries. Values are cheap to copy (an `Arc` or a `bool`), so a lookup
/// hands out a copy and holds no lock past the call.
struct Layer<K, V> {
    shards: Vec<Mutex<HashMap<K, Entry<V>>>>,
}

impl<K: Hash + Eq + Clone, V: Clone> Layer<K, V> {
    fn new() -> Self {
        Layer { shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect() }
    }

    /// The shard of `key`, locked. `Q` is any borrowed form of `K` (verdicts
    /// are looked up by `&[u8]`, with no owned key); `Borrow` makes both
    /// hash alike.
    fn shard<Q: Hash + ?Sized>(&self, key: &Q) -> MutexGuard<'_, HashMap<K, Entry<V>>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        self.shards[(h.finish() as usize) % SHARDS].lock().expect("cache shard poisoned")
    }

    /// The value under `key` if it is visible to a reader pinned at `pin`,
    /// restamped with `stamp()` (only taken on a hit).
    fn get<Q>(&self, key: &Q, pin: u64, stamp: impl FnOnce() -> u64) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut shard = self.shard(key);
        let entry = shard.get_mut(key).filter(|e| visible(e.epoch, pin))?;
        entry.stamp = stamp();
        Some(entry.value.clone())
    }

    /// Inserts `entry` unless the epoch it was computed at is no longer the
    /// cache's `current` one (checked under the shard lock, see
    /// [`EvalCache::invalidate`]) or `key` is already resident. Returns the
    /// value to use — the resident one when it is visible to the entry's
    /// epoch, else the entry's own — and the bytes newly added (0 unless
    /// inserted).
    fn insert(&self, key: K, entry: Entry<V>, current: &AtomicU64) -> (V, u64) {
        let mut shard = self.shard(&key);
        if entry.epoch != current.load(Ordering::SeqCst) {
            return (entry.value, 0);
        }
        if let Some(existing) = shard.get(&key) {
            let visible = visible(existing.epoch, entry.epoch);
            return (if visible { existing.value.clone() } else { entry.value }, 0);
        }
        let (value, bytes) = (entry.value.clone(), entry.bytes);
        shard.insert(key, entry);
        (value, bytes)
    }

    /// Keeps only the entries `keep` accepts; returns the number removed and
    /// the bytes they held.
    fn retain(&self, mut keep: impl FnMut(&K, &Entry<V>) -> bool) -> (u64, u64) {
        let (mut removed, mut freed) = (0, 0);
        for shard in &self.shards {
            shard.lock().expect("cache shard poisoned").retain(|k, e| {
                let kept = keep(k, e);
                if !kept {
                    removed += 1;
                    freed += e.bytes;
                }
                kept
            });
        }
        (removed, freed)
    }

    /// The stamp and key of the least-recently-touched entry.
    fn oldest(&self) -> Option<(u64, K)> {
        self.shards
            .iter()
            .filter_map(|s| {
                let map = s.lock().expect("cache shard poisoned");
                map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, e)| (e.stamp, k.clone()))
            })
            .min_by_key(|(stamp, _)| *stamp)
    }

    /// Removes `key`, returning the bytes it held (`None` if absent).
    fn remove(&self, key: &K) -> Option<u64> {
        self.shard(key).remove(key).map(|e| e.bytes)
    }

    /// The summed footprint of the resident entries.
    fn bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").values().map(|e| e.bytes).sum::<u64>())
            .sum()
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").len()).sum()
    }
}

/// The stamp of a layer's oldest entry, `u64::MAX` for an empty layer.
fn stamp_of<K>(oldest: &Option<(u64, K)>) -> u64 {
    oldest.as_ref().map_or(u64::MAX, |(stamp, _)| *stamp)
}

/// The cross-probe evaluation cache shared by all probes of one debug
/// session — or, handed out through
/// [`crate::debugger::SharedParts`], by every session of a serving process.
/// See the module docs for the layers, the epoch contract and the LRU byte
/// budget.
pub struct EvalCache {
    selections: Layer<SelectionKey, Arc<Vec<RowId>>>,
    /// Per-column value→rows postings of a cached selection — the derived
    /// sets probes attach as `PlanNode::col_postings`, extracted once per
    /// (selection, column) per epoch.
    postings: Layer<(SelectionKey, ColId), Arc<ValuePostings>>,
    /// Completed whole-network verdicts by canonical binding key (see
    /// [`network_key`]); `true` = alive.
    verdicts: Layer<Vec<u8>, bool>,
    /// Sum of resident entry footprints. Incremented on insert, decremented
    /// on eviction and invalidation — `bytes() == accounted_bytes()` is the
    /// accounting identity the shared-cache suite asserts.
    bytes: AtomicU64,
    /// Logical LRU clock; every touch (insert or hit) takes the next tick.
    clock: AtomicU64,
    /// Byte budget (`None` = unbounded, the session-scoped default). When an
    /// insert pushes `bytes` past it, least-recently-stamped entries are
    /// evicted until the store fits.
    budget: Option<u64>,
    /// [`Database::db_id`] this cache was built for.
    db_id: u64,
    /// Database epoch the resident entries are valid at. Advanced by
    /// [`EvalCache::invalidate`] *before* the eviction scan, so stale-pinned
    /// writers are fenced out while the scan runs.
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Entries evicted by [`EvalCache::invalidate`] (distinct from LRU
    /// `evictions`).
    invalidated: AtomicU64,
    /// Serializes evictors so concurrent over-budget inserts don't stampede
    /// the shard scan; held only during eviction, never during lookups.
    evict_lock: Mutex<()>,
}

impl EvalCache {
    /// Creates an empty cache for database `db_id` at write epoch `epoch`,
    /// bounded by `budget` bytes (`None` = unbounded).
    pub fn with_identity(db_id: u64, epoch: u64, budget: Option<u64>) -> EvalCache {
        EvalCache {
            selections: Layer::new(),
            postings: Layer::new(),
            verdicts: Layer::new(),
            bytes: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            budget,
            db_id,
            epoch: AtomicU64::new(epoch),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            evict_lock: Mutex::new(()),
        }
    }

    /// The next logical-clock tick (monotone across threads).
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Looks `key` up in `layer` as seen from epoch `pin`, stamping a hit
    /// most-recently-used and counting the hit or miss.
    fn lookup<K, Q, V>(&self, layer: &Layer<K, V>, pin: u64, key: &Q) -> Option<V>
    where
        K: Hash + Eq + Clone + Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        V: Clone,
    {
        let hit = layer.get(key, pin, || self.tick());
        let counter = if hit.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Inserts into `layer` through its write fence ([`Layer::insert`]),
    /// accounting the bytes added and evicting past the budget.
    fn admit<K: Hash + Eq + Clone, V: Clone>(
        &self,
        layer: &Layer<K, V>,
        pin: u64,
        key: K,
        value: V,
        bytes: u64,
        mask: u64,
    ) -> (V, u64) {
        let entry = Entry { value, bytes, stamp: self.tick(), epoch: pin, mask };
        let (value, added) = layer.insert(key, entry, &self.epoch);
        if added > 0 {
            self.bytes.fetch_add(added, Ordering::Relaxed);
            self.maybe_evict();
        }
        (value, added)
    }

    /// Looks up a cached selection as seen from epoch `pin`, stamping it
    /// most-recently-used.
    pub fn selection(
        &self,
        pin: u64,
        table: TableId,
        kw: &str,
        indexed: bool,
    ) -> Option<Arc<Vec<RowId>>> {
        self.lookup(&self.selections, pin, &(table, kw.to_owned(), indexed))
    }

    /// Inserts a selection computed at epoch `pin`, keeping the existing
    /// entry on a race and dropping the write when the cache has moved past
    /// `pin`. Returns the canonical shared vector plus the bytes newly added
    /// to the cache, the keyword's bytes included (0 when it lost the race
    /// or was fenced out — the caller still gets a usable `Arc` either way).
    pub fn insert_selection(
        &self,
        pin: u64,
        table: TableId,
        kw: &str,
        indexed: bool,
        rows: Vec<RowId>,
    ) -> (Arc<Vec<RowId>>, u64) {
        let bytes = (std::mem::size_of_val(rows.as_slice()) + kw.len()) as u64;
        let key = (table, kw.to_owned(), indexed);
        self.admit(&self.selections, pin, key, Arc::new(rows), bytes, table_mask_bit(table))
    }

    /// Looks up the cached value→rows postings of selection
    /// `(table, kw, indexed)` in column `col` as seen from epoch `pin`,
    /// stamping them most-recently-used.
    pub fn selection_postings(
        &self,
        pin: u64,
        table: TableId,
        kw: &str,
        indexed: bool,
        col: ColId,
    ) -> Option<Arc<ValuePostings>> {
        self.lookup(&self.postings, pin, &((table, kw.to_owned(), indexed), col))
    }

    /// Inserts the value→rows postings of a selection in one column, keeping
    /// the existing entry on a race and dropping fenced-out writes. Returns
    /// the canonical shared postings plus the bytes newly added, the
    /// keyword's included (0 when it lost the race or was fenced).
    pub fn insert_selection_postings(
        &self,
        pin: u64,
        table: TableId,
        kw: &str,
        indexed: bool,
        col: ColId,
        postings: ValuePostings,
    ) -> (Arc<ValuePostings>, u64) {
        let bytes = postings.payload_bytes() + kw.len() as u64;
        let key = ((table, kw.to_owned(), indexed), col);
        self.admit(&self.postings, pin, key, Arc::new(postings), bytes, table_mask_bit(table))
    }

    /// Looks up a completed whole-network verdict by canonical binding key as
    /// seen from epoch `pin`, stamping it most-recently-used.
    pub fn verdict(&self, pin: u64, key: &[u8]) -> Option<bool> {
        self.lookup(&self.verdicts, pin, key)
    }

    /// Inserts a completed whole-network verdict computed at epoch `pin` over
    /// the tables in `tables_mask`, keeping the existing entry on a race and
    /// dropping fenced-out writes. Returns the bytes newly added (0 when it
    /// lost the race or was fenced).
    pub fn insert_verdict(&self, pin: u64, key: Vec<u8>, tables_mask: u64, alive: bool) -> u64 {
        let bytes = (key.len() + 1) as u64;
        self.admit(&self.verdicts, pin, key, alive, bytes, tables_mask).1
    }

    /// Advances the cache to `db`'s current epoch, evicting exactly the
    /// entries the intervening write deltas can have changed (module docs,
    /// rule 3). Returns the number of entries invalidated.
    ///
    /// The new epoch is published *before* the eviction scan, so writers
    /// still pinned at the old epoch are fenced out of every shard the scan
    /// has yet to reach (and any stale entry that slips into a shard before
    /// the scan gets there is removed by the scan itself if dirty —
    /// see `Layer::insert`).
    ///
    /// When the database's delta log no longer covers this cache's epoch,
    /// nothing can be proven clean and the whole store is purged.
    pub fn invalidate(&self, db: &Database) -> u64 {
        if db.db_id() != self.db_id {
            return 0;
        }
        let from = self.epoch.load(Ordering::SeqCst);
        let to = db.epoch();
        if to <= from {
            return 0;
        }
        self.epoch.store(to, Ordering::SeqCst);
        let deltas = db.deltas_since(from);
        // One delta per epoch bump: a shorter slice means the log was
        // truncated past `from` and the gap is unauditable.
        if deltas.len() as u64 != to - from {
            return self.purge_all();
        }

        // Per-table dirt gathered from the deltas: the changed text values
        // (ASCII-lowercased, matching the containment predicate), the set of
        // written columns, and the union bitmask for verdict reachability.
        let mut dirty_text: HashMap<TableId, Vec<String>> = HashMap::new();
        let mut dirty_cols: HashMap<TableId, HashSet<ColId>> = HashMap::new();
        let mut dirty_mask = 0u64;
        for d in deltas {
            dirty_mask |= table_mask_bit(d.table);
            let t = db.table(d.table);
            let texts = dirty_text.entry(d.table).or_default();
            // The text values of `row` in the written columns (every column
            // for appends and deletes).
            let mut note = |row: &[Value]| {
                let cols = d.cols.iter().filter(|&&c| t.schema().columns[c].ty == DataType::Text);
                texts.extend(cols.filter_map(|&c| row[c].as_text()).map(str::to_ascii_lowercase));
            };
            match d.kind {
                DeltaKind::Append => d.rows.iter().for_each(|&rid| note(t.row(rid))),
                DeltaKind::Update => {
                    for (rid, old) in &d.old {
                        note(old);
                        note(t.row(*rid));
                    }
                    dirty_cols.entry(d.table).or_default().extend(d.cols.iter().copied());
                }
                DeltaKind::Delete => d.old.iter().for_each(|(_, old)| note(old)),
            }
        }

        // A selection (table, kw) is dirty iff some changed text value of its
        // table contains the keyword — the exact condition under which a row
        // enters, leaves, or re-enters the predicate's answer.
        let dirty = |(table, kw, _): &SelectionKey| {
            dirty_text.get(table).is_some_and(|texts| {
                let kw = kw.to_ascii_lowercase();
                texts.iter().any(|t| t.contains(&kw))
            })
        };

        // Postings are derived from (selection rows, column values): dirty
        // when their keyword is (tested on the postings key itself, since
        // LRU may have evicted the selection), or when the column itself was
        // updated under a surviving selection. Appends and deletes need no
        // extra test — they change a selection's postings only by changing
        // the selection, and a row joining or leaving a selection always
        // carries the keyword in its text, which the keyword test catches.
        self.forget([
            self.selections.retain(|sel, _| !dirty(sel)),
            self.postings.retain(|(sel, col), _| {
                !dirty(sel) && !dirty_cols.get(&sel.0).is_some_and(|cols| cols.contains(col))
            }),
            self.verdicts.retain(|_, e| e.mask & dirty_mask == 0),
        ])
    }

    /// Removes every resident entry (delta log truncated past this cache's
    /// epoch — nothing can be proven clean). Returns the entry count.
    fn purge_all(&self) -> u64 {
        self.forget([
            self.selections.retain(|_, _| false),
            self.postings.retain(|_, _| false),
            self.verdicts.retain(|_, _| false),
        ])
    }

    /// Books the `(entries, bytes)` each layer dropped to invalidation;
    /// returns the entry total.
    fn forget(&self, dropped: [(u64, u64); 3]) -> u64 {
        let (removed, freed) = dropped.iter().fold((0, 0), |(n, b), &(dn, db)| (n + dn, b + db));
        self.bytes.fetch_sub(freed, Ordering::Relaxed);
        self.invalidated.fetch_add(removed, Ordering::Relaxed);
        removed
    }

    /// Evicts least-recently-used entries until the store fits its budget.
    /// Eviction is approximate LRU (the global minimum stamp at scan time);
    /// losing a race with a concurrent touch merely evicts a slightly-stale
    /// victim, never corrupts accounting. Each removed entry returns its
    /// footprint to [`EvalCache::bytes`] and counts one eviction.
    fn maybe_evict(&self) {
        let Some(budget) = self.budget else { return };
        if self.bytes.load(Ordering::Relaxed) <= budget {
            return;
        }
        let _guard = self.evict_lock.lock().expect("evict lock poisoned");
        while self.bytes.load(Ordering::Relaxed) > budget {
            let (sel, post, ver) =
                (self.selections.oldest(), self.postings.oldest(), self.verdicts.oldest());
            // Stamps are unique ticks, so exactly one layer holds the minimum.
            let min = stamp_of(&sel).min(stamp_of(&post)).min(stamp_of(&ver));
            let freed = match (sel, post, ver) {
                (Some((stamp, k)), _, _) if stamp == min => self.selections.remove(&k),
                (_, Some((stamp, k)), _) if stamp == min => self.postings.remove(&k),
                (_, _, Some((stamp, k))) if stamp == min => self.verdicts.remove(&k),
                _ => break,
            };
            if let Some(freed) = freed {
                self.bytes.fetch_sub(freed, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Total bytes currently resident (selections + postings + verdicts,
    /// each with its key's keyword bytes). Decremented on eviction and
    /// invalidation;
    /// always equals [`EvalCache::accounted_bytes`].
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Recomputes the resident footprint by walking every shard — the slow
    /// ground truth for the `bytes()` accounting identity, used by the
    /// shared-cache differential suite.
    pub fn accounted_bytes(&self) -> u64 {
        self.selections.bytes() + self.postings.bytes() + self.verdicts.bytes()
    }

    /// The byte budget, if this cache is bounded.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// [`Database::db_id`] this cache serves (0 = null identity).
    pub fn db_id(&self) -> u64 {
        self.db_id
    }

    /// Database epoch the resident entries are valid at.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Lookups answered from the cache (every layer).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing (every layer).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to keep the store within its byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries evicted by write-delta invalidation.
    pub fn invalidated(&self) -> u64 {
        self.invalidated.load(Ordering::Relaxed)
    }

    /// Number of cached selections.
    pub fn selection_entries(&self) -> usize {
        self.selections.len()
    }

    /// Number of cached per-column selection postings.
    pub fn postings_entries(&self) -> usize {
        self.postings.len()
    }

    /// Number of cached whole-network verdicts.
    pub fn verdict_entries(&self) -> usize {
        self.verdicts.len()
    }
}

/// Canonical binding key of a *whole* network whose vertex `i` is bound to
/// keyword `bound[i]` (`None` for a free copy): the rooted byte code of the
/// full tree (rooted at vertex 0), then the network's distinct bound
/// keywords in bytewise order, each prefixed by its length as an LEB128
/// varint (one byte below 128). A vertex is labeled `table << 32 | (rank + 1)`,
/// `rank` being its keyword's position in that list (0 for a free copy); no
/// copy numbers (see [`crate::oracle::AlivenessOracle::with_eval_cache`]).
/// The rooted code is self-delimiting, so two keys are equal exactly when
/// the rooted trees are equal with the same table and keyword text at each
/// vertex: the engine is asked the exact same question. The verdict-cache
/// layer ([`EvalCache::verdict`]) then answers the second probe from the
/// first's completed reduction — within a session or, through a shared
/// store, across every session of the epoch — and the single-flight table
/// of [`crate::batch`] claims it under the same bytes.
pub fn network_key(j: &Jnts, bound: &[Option<&str>]) -> Vec<u8> {
    let mut keywords: Vec<&str> = bound.iter().flatten().copied().collect();
    keywords.sort_unstable();
    keywords.dedup();
    let label = |i: usize| {
        let rank = bound[i].map_or(0, |kw| keywords.binary_search(&kw).expect("listed") + 1);
        (j.nodes()[i].table as u64) << 32 | rank as u64
    };
    let mut key = rooted_subtree_key(0, usize::MAX, &direction_aware_adjacency(j), &label);
    // The stored key keeps this capacity, so reserve what one-byte lengths
    // need and no more.
    key.reserve_exact(keywords.iter().map(|kw| 1 + kw.len()).sum());
    for kw in &keywords {
        let mut len = kw.len();
        while len >= 0x80 {
            key.push(0x80 | (len & 0x7f) as u8);
            len >>= 7;
        }
        key.push(len as u8);
        key.extend_from_slice(kw.as_bytes());
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use relengine::{DatabaseBuilder, Value};

    #[test]
    fn selection_roundtrip_and_race() {
        let c = EvalCache::with_identity(0, 0, None);
        assert!(c.selection(0, 0, "b", true).is_none());
        let (first, added) = c.insert_selection(0, 0, "b", true, vec![3, 5, 8]);
        assert_eq!(*first, vec![3, 5, 8]);
        assert!(added > 0);
        let bytes = c.bytes();
        assert_eq!(bytes, added);
        // Losing writer keeps the existing entry and adds no bytes.
        let (second, re_added) = c.insert_selection(0, 0, "b", true, vec![9]);
        assert_eq!(*second, vec![3, 5, 8]);
        assert_eq!(re_added, 0);
        assert_eq!(c.bytes(), bytes);
        assert_eq!(c.selection_entries(), 1);
        // Indexed flag is part of the key.
        assert!(c.selection(0, 0, "b", false).is_none());
    }

    #[test]
    fn added_bytes_count_the_keyword() {
        let c = EvalCache::with_identity(0, 0, None);
        let (_, added) = c.insert_selection(0, 0, "saffron", true, vec![1, 2]);
        assert_eq!(added, (2 * std::mem::size_of::<RowId>() + "saffron".len()) as u64);
        let postings = ValuePostings::build(vec![(1, 0)]);
        let payload = postings.payload_bytes();
        let (_, added) = c.insert_selection_postings(0, 0, "saffron", true, 1, postings);
        assert_eq!(added, payload + "saffron".len() as u64);
        assert_eq!(c.bytes(), c.accounted_bytes());
    }

    #[test]
    fn network_keys_delimit_long_keywords() {
        let j = Jnts::single(crate::jnts::TupleSet::new(0, 1));
        let key = |kw: &str| network_key(&j, &[Some(kw)]);
        let (long, longer) = ("k".repeat(200), "k".repeat(300));
        assert_ne!(key(&long), key(&longer));
        // A length of 128 or more takes a second varint byte.
        assert_eq!(key(&long).len(), key("k").len() + 199 + 1);
    }

    #[test]
    fn hit_miss_counters_track_all_layers() {
        let c = EvalCache::with_identity(0, 0, None);
        assert!(c.selection(0, 0, "a", true).is_none());
        assert!(c.verdict(0, b"nope").is_none());
        assert_eq!((c.hits(), c.misses()), (0, 2));
        c.insert_selection(0, 0, "a", true, vec![1]);
        c.insert_verdict(0, b"yes".to_vec(), 1, true);
        assert!(c.selection(0, 0, "a", true).is_some());
        assert_eq!(c.verdict(0, b"yes"), Some(true));
        assert_eq!((c.hits(), c.misses()), (2, 2));
    }

    #[test]
    fn budget_evicts_lru_and_returns_bytes() {
        // Each selection of 4 RowIds under a one-byte keyword costs 16 + 1
        // bytes; budget fits two.
        let c = EvalCache::with_identity(7, 0, Some(34));
        assert_eq!(c.db_id(), 7);
        c.insert_selection(0, 0, "a", true, vec![1, 2, 3, 4]);
        c.insert_selection(0, 1, "b", true, vec![1, 2, 3, 4]);
        assert_eq!(c.evictions(), 0);
        // Touch the first so the second is the LRU victim.
        assert!(c.selection(0, 0, "a", true).is_some());
        c.insert_selection(0, 2, "c", true, vec![1, 2, 3, 4]);
        assert_eq!(c.evictions(), 1, "one entry evicted to fit the budget");
        assert!(c.bytes() <= 34, "budget enforced: {}", c.bytes());
        assert!(c.selection(0, 0, "a", true).is_some(), "recently-touched entry survives");
        assert!(c.selection(0, 1, "b", true).is_none(), "LRU entry evicted");
        assert!(c.selection(0, 2, "c", true).is_some(), "newest entry resident");
        assert_eq!(c.bytes(), c.accounted_bytes(), "accounting identity after eviction");
    }

    #[test]
    fn eviction_spans_layers_and_keeps_identity() {
        let c = EvalCache::with_identity(1, 0, Some(42));
        c.insert_verdict(0, b"old-verdict-key".to_vec(), 1, true);
        c.insert_selection(0, 0, "a", true, vec![1, 2, 3, 4]);
        c.insert_selection(0, 1, "b", true, vec![1, 2, 3, 4]);
        // 15+1 key/value + 17 + 17 = 50 > 42: the oldest (verdict) goes.
        assert!(c.evictions() > 0);
        assert!(c.verdict(0, b"old-verdict-key").is_none(), "oldest layer-3 entry evicted");
        assert!(c.bytes() <= 42);
        assert_eq!(c.bytes(), c.accounted_bytes());
    }

    #[test]
    fn shared_handle_is_one_store() {
        let shared = Arc::new(EvalCache::with_identity(3, 0, Some(1 << 20)));
        let a = Arc::clone(&shared);
        let b = Arc::clone(&shared);
        a.insert_verdict(0, b"k".to_vec(), 1, true);
        assert!(b.verdict(0, b"k").is_some(), "handles alias one store");
        assert_eq!(shared.db_id(), 3);
        assert_eq!(shared.epoch(), 0);
        assert_eq!(shared.budget(), Some(1 << 20));
        assert!(shared.bytes() > 0);
        assert_eq!(shared.hits(), 1);
        assert_eq!(shared.verdict_entries(), 1);
    }

    /// A two-table db (color ← item) used by the invalidation tests.
    fn writable_db() -> Database {
        let mut b = DatabaseBuilder::new();
        b.table("color")
            .column("id", DataType::Int)
            .column("name", DataType::Text)
            .primary_key("id");
        b.table("item")
            .column("id", DataType::Int)
            .column("name", DataType::Text)
            .column("color_id", DataType::Int)
            .primary_key("id");
        b.foreign_key("item", "color_id", "color", "id").expect("static");
        let mut db = b.finish().expect("static");
        db.insert_values("color", vec![Value::Int(1), Value::text("red")]).expect("row");
        db.insert_values("color", vec![Value::Int(2), Value::text("blue")]).expect("row");
        db.insert_values(
            "item",
            vec![Value::Int(10), Value::text("red candle"), Value::Int(1)],
        )
        .expect("row");
        db.finalize();
        db
    }

    #[test]
    fn read_fence_hides_future_entries() {
        let c = EvalCache::with_identity(9, 3, None);
        c.insert_selection(3, 0, "a", true, vec![1, 2]);
        // A reader pinned before the entry's epoch must miss it…
        assert!(c.selection(2, 0, "a", true).is_none(), "entry from the future is invisible");
        // …while a reader at (or past) it hits.
        assert!(c.selection(3, 0, "a", true).is_some());
        assert!(c.selection(4, 0, "a", true).is_some());
        assert_eq!((c.hits(), c.misses()), (2, 1));
    }

    #[test]
    fn write_fence_drops_stale_inserts() {
        let mut db = writable_db();
        let c = EvalCache::with_identity(db.db_id(), db.epoch(), None);
        let color = db.table_id("color").expect("table");
        db.append_rows(color, vec![vec![Value::Int(3), Value::text("green")]]).expect("write");
        assert_eq!(c.invalidate(&db), 0, "empty cache: nothing to invalidate");
        assert_eq!(c.epoch(), db.epoch());
        // A session still pinned at epoch 0 computes against superseded data;
        // its inserts must not land.
        let (arc, added) = c.insert_selection(0, 0, "a", true, vec![1]);
        assert_eq!(added, 0, "stale insert fenced out");
        assert_eq!(*arc, vec![1], "caller still gets a usable value");
        assert_eq!(c.selection_entries(), 0);
        assert_eq!(c.insert_verdict(0, b"k".to_vec(), 1, true), 0);
        assert_eq!(c.bytes(), 0);
        // Current-epoch inserts land normally.
        let (_, added) = c.insert_selection(c.epoch(), 0, "a", true, vec![1]);
        assert!(added > 0);
    }

    #[test]
    fn invalidation_is_selective_per_keyword_and_table() {
        let mut db = writable_db();
        let color = db.table_id("color").expect("table");
        let item = db.table_id("item").expect("table");
        let c = EvalCache::with_identity(db.db_id(), db.epoch(), None);
        let (red, candle) = ("red", "candle");
        // Selections on both tables, both keywords; one verdict per table.
        c.insert_selection(0, color, red, true, vec![0]);
        c.insert_selection(0, color, candle, true, vec![]);
        c.insert_selection(0, item, red, true, vec![0]);
        c.insert_selection(0, item, candle, true, vec![0]);
        c.insert_verdict(0, b"color-side".to_vec(), table_mask_bit(color), false);
        c.insert_verdict(0, b"item-side".to_vec(), table_mask_bit(item), true);
        c.insert_verdict(
            0,
            b"net".to_vec(),
            table_mask_bit(color) | table_mask_bit(item),
            true,
        );

        // Append a color whose text mentions "red" but not "candle".
        db.append_rows(color, vec![vec![Value::Int(3), Value::text("dark red")]])
            .expect("write");
        let removed = c.invalidate(&db);
        let pin = c.epoch();
        assert!(
            c.selection(pin, color, red, true).is_none(),
            "(color, red) dirtied by the append"
        );
        assert!(
            c.selection(pin, color, candle, true).is_some(),
            "(color, candle) untouched: 'dark red' does not contain 'candle'"
        );
        assert!(c.selection(pin, item, red, true).is_some(), "item selections untouched");
        assert!(c.selection(pin, item, candle, true).is_some());
        assert!(c.verdict(pin, b"color-side").is_none(), "color-only verdict evicted");
        assert!(c.verdict(pin, b"item-side").is_some(), "item-only verdict survives");
        assert!(c.verdict(pin, b"net").is_none(), "verdict spanning the written table evicted");
        assert_eq!(removed, 3);
        assert_eq!(c.invalidated(), 3);
        assert_eq!(c.bytes(), c.accounted_bytes(), "accounting identity after invalidation");
    }

    #[test]
    fn update_invalidation_uses_old_and_new_text() {
        let mut db = writable_db();
        let color = db.table_id("color").expect("table");
        let c = EvalCache::with_identity(db.db_id(), db.epoch(), None);
        let (red, blue, green) = ("red", "blue", "green");
        c.insert_selection(0, color, red, true, vec![0]);
        c.insert_selection(0, color, blue, true, vec![1]);
        c.insert_selection(0, color, green, true, vec![]);
        // Rename "blue" → "teal": the old text dirties "blue"; neither text
        // mentions "red" or "green".
        db.update_row(color, 1, vec![Value::Int(2), Value::text("teal")]).expect("write");
        c.invalidate(&db);
        let pin = c.epoch();
        assert!(c.selection(pin, color, blue, true).is_none(), "old text dirties 'blue'");
        assert!(c.selection(pin, color, red, true).is_some());
        assert!(c.selection(pin, color, green, true).is_some());
        // And the reverse: rename "teal" → "green" dirties "green" via the
        // new text.
        db.update_row(color, 1, vec![Value::Int(2), Value::text("green")]).expect("write");
        c.invalidate(&db);
        let pin = c.epoch();
        assert!(c.selection(pin, color, green, true).is_none(), "new text dirties 'green'");
        assert!(c.selection(pin, color, red, true).is_some());
    }

    #[test]
    fn postings_invalidated_by_column_writes() {
        let mut db = writable_db();
        let color = db.table_id("color").expect("table");
        let item = db.table_id("item").expect("table");
        let c = EvalCache::with_identity(db.db_id(), db.epoch(), None);
        let candle = "candle";
        let mk = || ValuePostings::build(vec![(1, 0)]);
        c.insert_selection_postings(0, item, candle, true, 2, mk());
        c.insert_selection_postings(0, item, candle, true, 0, mk());
        // Repoint the item's color_id (column 2) without touching its text:
        // the selection survives, the col-2 postings don't, the col-0
        // postings do.
        db.update_row(
            item,
            0,
            vec![Value::Int(10), Value::text("red candle"), Value::Int(2)],
        )
        .expect("write");
        c.invalidate(&db);
        let pin = c.epoch();
        assert!(c.selection_postings(pin, item, candle, true, 2).is_none());
        assert!(c.selection_postings(pin, item, candle, true, 0).is_some());
        // A delete dirties every column's postings of the touched table.
        db.delete_row(color, 1).expect("write");
        c.insert_selection_postings(c.epoch(), color, candle, true, 1, mk());
        db.delete_row(item, 0).expect("write");
        c.invalidate(&db);
        let pin = c.epoch();
        assert!(c.selection_postings(pin, item, candle, true, 0).is_none());
        assert!(
            c.selection_postings(pin, color, candle, true, 1).is_some(),
            "postings on the untouched table survive"
        );
        assert_eq!(c.bytes(), c.accounted_bytes());
    }

    #[test]
    fn postings_outliving_their_selection_are_still_invalidated() {
        let mut db = writable_db();
        let color = db.table_id("color").expect("table");
        let item = db.table_id("item").expect("table");
        let mk = || ValuePostings::build(vec![(1, 0)]);
        // Room for the postings and one more 21-byte selection, not for the
        // 19-byte ("red") selection as well.
        let budget = mk().payload_bytes() + 3 + 21;
        let c = EvalCache::with_identity(db.db_id(), db.epoch(), Some(budget));
        c.insert_selection(0, color, "red", true, vec![0, 1, 2, 3]);
        c.insert_selection_postings(0, color, "red", true, 0, mk());
        c.insert_selection(0, item, "other", true, vec![0, 1, 2, 3]);
        assert_eq!(c.evictions(), 1, "the LRU ('red' selection) is evicted");
        assert_eq!((c.selection_entries(), c.postings_entries()), (1, 1));
        // The write dirties "red" on color: its postings must go even though
        // no resident selection carries the keyword.
        db.append_rows(color, vec![vec![Value::Int(3), Value::text("dark red")]])
            .expect("write");
        assert_eq!(c.invalidate(&db), 1);
        assert!(c.selection_postings(c.epoch(), color, "red", true, 0).is_none());
        assert_eq!((c.selection_entries(), c.postings_entries()), (1, 0));
        assert_eq!(c.bytes(), c.accounted_bytes());
    }

    #[test]
    fn truncated_delta_log_purges_everything() {
        let mut db = writable_db();
        let color = db.table_id("color").expect("table");
        let c = EvalCache::with_identity(db.db_id(), db.epoch(), None);
        c.insert_selection(0, color, "a", true, vec![0]);
        c.insert_verdict(0, b"s".to_vec(), table_mask_bit(1), true);
        db.append_rows(color, vec![vec![Value::Int(3), Value::text("green")]]).expect("write");
        db.truncate_deltas(db.epoch());
        let removed = c.invalidate(&db);
        assert_eq!(removed, 2, "unauditable gap: everything goes");
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.selection_entries() + c.verdict_entries(), 0);
    }

    #[test]
    fn foreign_database_is_ignored() {
        let db = writable_db();
        let c = EvalCache::with_identity(db.db_id().wrapping_add(1), 0, None);
        c.insert_selection(0, 0, "a", true, vec![0]);
        assert_eq!(c.invalidate(&db), 0, "identity mismatch: no-op");
        assert_eq!(c.selection_entries(), 1);
    }

    #[test]
    fn invalidating_an_evicted_entry_never_double_subtracts() {
        let mut db = writable_db();
        let color = db.table_id("color").expect("table");
        // Budget fits two 16-byte selections with their keywords ("red" 3,
        // "stale" 5, "other" 5 bytes); the third insert evicts the LRU one —
        // which is exactly the entry the write then dirties.
        let c = EvalCache::with_identity(db.db_id(), db.epoch(), Some(42));
        let (red, stale) = ("red", "stale");
        c.insert_selection(0, color, red, true, vec![0, 1, 2, 3]);
        c.insert_selection(0, color, stale, true, vec![0, 1, 2, 3]);
        assert!(c.selection(0, color, stale, true).is_some(), "touch: 'red' becomes LRU");
        c.insert_selection(0, 1, "other", true, vec![0, 1, 2, 3]);
        assert_eq!(c.evictions(), 1, "'red' evicted by the budget");
        let before = c.bytes();
        assert_eq!(before, c.accounted_bytes());
        // Append text matching both keywords: invalidation wants both
        // selections, but 'red' is already gone — it must be skipped, not
        // subtracted again.
        db.append_rows(color, vec![vec![Value::Int(3), Value::text("stale red")]])
            .expect("write");
        let removed = c.invalidate(&db);
        assert_eq!(removed, 1, "only the resident entry is invalidated");
        assert_eq!(c.invalidated(), 1);
        assert_eq!(c.bytes(), c.accounted_bytes(), "no double subtraction");
        assert!(c.bytes() < before);
    }
}
