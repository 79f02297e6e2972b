//! Cross-session single-flight probing: a probe that another session is
//! already executing is waited on, not executed again.
//!
//! The process-wide [`crate::evalcache::EvalCache`] deduplicates probes
//! *after* the first session has paid for them; a [`WaveExchange`] covers
//! the ones **in flight** at the same moment. It is one table of cells keyed
//! by `(db_id, epoch, binding_key)` — the verdict cache's canonical
//! [`crate::evalcache::network_key`], over the exchange's own keyword ids so
//! keys agree across sessions. On a verdict-cache miss, after the driver has
//! reserved the probe's budget slot in dispatch order, the first session to
//! submit a key **owns** its cell: it executes the probe at once, publishes
//! the verdict, then retires the cell. A session that finds the key in
//! flight **follows**: it waits on the cell and books the verdict like a
//! memo hit (`coalesced_probes`). Nothing waits for peers to arrive, so a
//! session without a concurrent twin runs exactly as with no exchange.
//!
//! Equal keys on one snapshot are the same ground-truth query, and a
//! follower's budget slot was reserved at its own dispatch position, so
//! reports and budget cuts match unbatched runs (DESIGN.md §8.2, §14). An
//! owner that fails or unwinds orphans its cell (`OwnedCell`) and the
//! followers re-execute on their own slots. A session resolves one probe at
//! a time and never waits while it owns a cell, so no two sessions wait on
//! each other.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::evalcache::Interner;
use crate::jnts::Jnts;
use crate::oracle::{AlivenessOracle, Probe, Source};

/// The switch for single-flight probing (`kwserve::ServeConfig::batching`).
/// It has no knobs: nothing waits for overlap, so there is nothing to tune.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchConfig;

/// `(db_id, epoch, binding_key)`: different snapshots never share a cell.
type Key = (u64, u64, Vec<u8>);

/// A cell is `Pending` until its owner settles it: `Done` with the
/// ground-truth verdict, or `Orphaned` when the owner gave up (fault,
/// budget, death) and followers must re-execute.
enum CellState {
    Pending,
    Done(bool),
    Orphaned,
}

/// One probe in flight: the owner settles it, followers block on it.
struct ProbeCell {
    state: Mutex<CellState>,
    done: Condvar,
}

impl ProbeCell {
    fn new() -> ProbeCell {
        ProbeCell { state: Mutex::new(CellState::Pending), done: Condvar::new() }
    }

    /// Settles a pending cell with the owner's verdict, or orphans it on
    /// `None`; a no-op once settled (verdicts never change).
    fn settle(&self, verdict: Option<bool>) {
        let mut st = self.state.lock().unwrap();
        if matches!(*st, CellState::Pending) {
            *st = verdict.map_or(CellState::Orphaned, CellState::Done);
            self.done.notify_all();
        }
    }

    /// Blocks until the owner fulfills (`Some`) or orphans (`None`) the cell.
    fn wait(&self) -> Option<bool> {
        let pending = |st: &mut CellState| matches!(st, CellState::Pending);
        let st = self.done.wait_while(self.state.lock().unwrap(), pending).unwrap();
        if let CellState::Done(alive) = *st {
            Some(alive)
        } else {
            None
        }
    }
}

/// The process-wide single-flight table (see the module docs), for any
/// number of databases and epochs. Attached to each session's debugger via
/// [`crate::debugger::NonAnswerDebugger::set_wave_exchange`].
#[derive(Default)]
pub struct WaveExchange {
    /// The exchange's own keyword interner: canonical keys must agree
    /// *across* sessions, so they cannot use any session cache's ids.
    interner: Interner,
    inflight: Mutex<HashMap<Key, Arc<ProbeCell>>>,
    merged_waves: AtomicU64,
    submitted: AtomicU64,
    coalesced: AtomicU64,
}

impl WaveExchange {
    /// Follower waits on an in-flight cell.
    pub fn merged_waves(&self) -> u64 {
        self.merged_waves.load(Ordering::Relaxed)
    }

    /// Probes looked up in the table (owners and followers).
    pub fn submitted_probes(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Probes answered by another execution.
    pub fn coalesced_probes(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Cells in flight; zero whenever no probe is executing.
    pub fn pending_cells(&self) -> usize {
        self.inflight.lock().unwrap().len()
    }

    /// Looks `key` up: the owner takes a fresh cell into `owned` (which
    /// must be empty) and gets `None`; a follower gets the in-flight cell to
    /// wait on.
    fn claim(&self, key: Key, owned: &mut OwnedCell<'_>) -> Option<Arc<ProbeCell>> {
        debug_assert!(owned.cell.is_none(), "a guard owns at most one cell");
        self.submitted.fetch_add(1, Ordering::Relaxed);
        match self.inflight.lock().unwrap().entry(key) {
            Entry::Occupied(e) => {
                self.merged_waves.fetch_add(1, Ordering::Relaxed);
                Some(e.get().clone())
            }
            Entry::Vacant(v) => {
                let cell = Arc::new(ProbeCell::new());
                owned.cell = Some((v.key().clone(), cell.clone()));
                v.insert(cell);
                None
            }
        }
    }

    /// Resolves one reserved probe of dense node `dense`. The first session
    /// to claim its key owns the cell: it executes on `oracle` and publishes
    /// the outcome. A follower waits on the cell and settles the owner's
    /// verdict (`coalesced_probes`); its reserved slot stays consumed, so
    /// budget cuts match unbatched runs. An orphaned cell makes the follower
    /// re-execute on its own slot. `verdict_key` goes on to the publish.
    pub(crate) fn resolve<'a>(
        &self,
        oracle: &mut AlivenessOracle<'a>,
        dense: usize,
        jnts: &'a Jnts,
        verdict_key: Option<Vec<u8>>,
    ) -> Probe {
        let db = oracle.database();
        let key = (db.db_id(), db.epoch(), oracle.binding_key(jnts, &self.interner));
        let mut owned = OwnedCell { exchange: self, cell: None };
        let Some(cell) = self.claim(key, &mut owned) else {
            let probe = oracle.execute_reserved(dense, jnts, verdict_key);
            // A fault, hard failure or budget trip orphans the cell.
            owned.settle(if let Probe::Verdict(alive) = probe { Some(alive) } else { None });
            return probe;
        };
        match cell.wait() {
            Some(alive) => {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                oracle.settle(dense, jnts, Source::Coalesced(alive), verdict_key)
            }
            None => oracle.execute_reserved(dense, jnts, verdict_key),
        }
    }
}

/// RAII custody of the one cell a session owns while it executes: the
/// cell is settled, then retired, exactly once. A cell still held when the
/// guard drops (an unwind through the driver) is orphaned, so its
/// followers re-execute.
struct OwnedCell<'x> {
    exchange: &'x WaveExchange,
    cell: Option<(Key, Arc<ProbeCell>)>,
}

impl OwnedCell<'_> {
    /// Publishes (or orphans, on `None`) the owned cell, then retires it.
    fn settle(&mut self, verdict: Option<bool>) {
        if let Some((key, cell)) = self.cell.take() {
            cell.settle(verdict);
            self.exchange.inflight.lock().unwrap().remove(&key);
        }
    }
}

impl Drop for OwnedCell<'_> {
    fn drop(&mut self) {
        self.settle(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(epoch: u64) -> Key {
        (1, epoch, vec![9, 9, 9])
    }

    fn guard(ex: &WaveExchange) -> OwnedCell<'_> {
        OwnedCell { exchange: ex, cell: None }
    }

    #[test]
    fn cells_deliver_and_orphan() {
        let cell = ProbeCell::new();
        cell.settle(Some(true));
        cell.settle(None); // late orphan must not clobber a verdict
        assert_eq!(cell.wait(), Some(true));
        let cell = ProbeCell::new();
        cell.settle(None);
        cell.settle(Some(false)); // late verdict must not resurrect an orphan
        assert_eq!(cell.wait(), None);
    }

    #[test]
    fn first_claim_owns_and_publishing_empties_the_table() {
        let ex = WaveExchange::default();
        let (mut owner, mut peer) = (guard(&ex), guard(&ex));
        assert!(ex.claim(key(0), &mut owner).is_none(), "the first claim owns");
        let cell = ex.claim(key(0), &mut peer).expect("a twin claim follows");
        assert!(peer.cell.is_none(), "a follower takes no custody");
        assert_eq!((ex.submitted_probes(), ex.merged_waves(), ex.pending_cells()), (2, 1, 1));
        owner.settle(Some(true));
        assert_eq!(ex.pending_cells(), 0, "the owner retires its cell on publishing");
        assert_eq!(cell.wait(), Some(true), "the follower gets the owner's verdict");
        assert!(ex.claim(key(0), &mut peer).is_none(), "a retired key is owned afresh");
    }

    #[test]
    fn different_epochs_never_share_a_cell() {
        let ex = WaveExchange::default();
        let (mut first, mut second) = (guard(&ex), guard(&ex));
        assert!(ex.claim(key(0), &mut first).is_none() && ex.claim(key(1), &mut second).is_none());
        assert_eq!((ex.merged_waves(), ex.pending_cells()), (0, 2));
        drop((first, second));
        assert_eq!(ex.pending_cells(), 0, "dropping the guards retires their cells");
    }

    /// Each verdict source — an execution, a cached whole-network verdict
    /// and a coalesced wait on another session's cell — settles the node's
    /// entry in the oracle's fact table. With the memo on, the node's next
    /// probe is a memo hit that runs no SQL; with it off, the table answers
    /// nothing.
    #[test]
    fn every_verdict_source_settles_the_fact_table() {
        use crate::binding::{map_keywords, KeywordQuery};
        use crate::evalcache::EvalCache;
        use crate::jnts::TupleSet;
        use crate::schema_graph::Incidence;
        use textindex::InvertedIndex;

        let db = crate::traversal::tests::db();
        let index = InvertedIndex::build(&db);
        let mapping = map_keywords(&KeywordQuery::parse("red candle").unwrap(), &index);
        let interp = &mapping.interpretations[0];
        // ptype(candle) <- item -> color(red): a red candle exists.
        let inc = |fk, other, local_is_from| Incidence { fk, other, local_is_from };
        let j = Jnts::single(TupleSet::new(0, 1))
            .extend(0, inc(0, 1, false), 0)
            .extend(1, inc(1, 2, true), 1);
        let cache = Arc::new(EvalCache::with_identity(db.db_id(), db.epoch(), None));
        let warm = AlivenessOracle::new(&db, Some(&index), interp, &mapping.keywords, false)
            .with_eval_cache(Arc::clone(&cache))
            .is_alive(0, &j);
        assert!(warm.unwrap(), "the cache holds the network's verdict");
        let dense = 3;

        for memoize in [true, false] {
            let oracle =
                || AlivenessOracle::new(&db, Some(&index), interp, &mapping.keywords, memoize);

            let mut executed = oracle();
            assert_eq!(executed.probe(dense, &j), Probe::Verdict(true));
            assert_eq!(executed.queries(), 1);

            let mut cached = oracle().with_eval_cache(Arc::clone(&cache));
            assert_eq!(cached.probe(dense, &j), Probe::Verdict(true));
            assert_eq!((cached.queries(), cached.metrics().verdict_cache_hits), (0, 1));

            // A peer session owns the network's cell; this probe follows it.
            let (mut coalesced, ex) = (oracle(), WaveExchange::default());
            let key = (db.db_id(), db.epoch(), coalesced.binding_key(&j, &ex.interner));
            let mut owner = guard(&ex);
            assert!(ex.claim(key, &mut owner).is_none());
            let probe = std::thread::scope(|s| {
                s.spawn(|| {
                    while ex.merged_waves() == 0 {
                        std::thread::yield_now();
                    }
                    owner.settle(Some(true));
                });
                coalesced.probe_through(dense, &j, Some(&ex))
            });
            assert_eq!(probe, Probe::Verdict(true));
            assert_eq!((coalesced.queries(), coalesced.metrics().coalesced_probes), (0, 1));

            let sources = [("executed", executed), ("cached", cached), ("coalesced", coalesced)];
            for (source, mut o) in sources {
                let (queries, memo_hits) = (o.queries(), o.memo_hits());
                assert_eq!(o.verdict_if_known(dense), memoize.then_some(true), "{source}");
                assert_eq!(o.probe(dense, &j), Probe::Verdict(true), "{source}");
                let from_table = o.memo_hits() - memo_hits;
                assert_eq!(from_table, u64::from(memoize), "{source}, memoize {memoize}");
                if memoize {
                    assert_eq!(o.queries(), queries, "{source}: a memo hit runs no SQL");
                }
            }
        }
    }

    #[test]
    fn a_dropped_owner_orphans_and_retires_its_cell() {
        let ex = WaveExchange::default();
        let mut owner = guard(&ex);
        assert!(ex.claim(key(0), &mut owner).is_none());
        let cell = ex.claim(key(0), &mut guard(&ex)).expect("a twin claim follows");
        let waiter = std::thread::spawn(move || cell.wait());
        drop(owner);
        assert_eq!(waiter.join().unwrap(), None, "the follower must re-execute");
        assert_eq!((ex.pending_cells(), ex.coalesced_probes()), (0, 0));
    }
}
