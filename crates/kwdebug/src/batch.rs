//! Cross-session batched probing: merge concurrent sessions' frontiers into
//! shared dispatch waves.
//!
//! The process-wide [`crate::evalcache::EvalCache`] deduplicates
//! overlapping probes *after* the first session has paid for the execution.
//! This module removes the other half of the redundancy: probes that are
//! simultaneously **in flight** across sessions. Concurrent sessions on the
//! same `(db_id, epoch)` park each wave in a shared [`WaveExchange`] for up
//! to a configured window; probes are canonicalized by the same
//! [`crate::evalcache::network_key`] the layer-3 verdict cache uses, equal
//! keys coalesce, and each distinct probe executes exactly once — on the
//! executor of the first session that submitted it (the *owner*). Every
//! other subscriber (a *follower*) receives the verdict in flight and books
//! it like a memo hit (`coalesced_probes`), never as an execution.
//!
//! The exchange is one optional stage of the single Phase-3 wave driver
//! ([`crate::traversal`]), not a driver of its own: the driver reserves a
//! parked wave in visit order, hands it to `BatchTicket::resolve`, and
//! applies the returned outcomes in dispatch-slot order exactly as it does
//! for an unparked wave. **Determinism** (DESIGN.md §8.2) therefore needs
//! only two facts beyond the driver's own argument:
//!
//! * *Ground-truth verdicts* — two probes with equal canonical keys on the
//!   same database snapshot are the same query; the owner's verdict is
//!   bit-for-bit the verdict the follower's own engine would have produced.
//! * *Reserved slots* — followers hold their own
//!   [`crate::budget::BudgetGate`] slot, reserved at their original dispatch
//!   position before parking, so a `max_probes` budget trips at exactly the
//!   node where the unbatched run would have stopped.
//!
//! **Liveness**: a session always executes and publishes *all* probes it
//! owns before waiting on any follower cell, so two sessions can never wait
//! on each other. If an owner dies mid-wave (panic, hard failure), an RAII
//! guard orphans its unpublished cells and each follower re-executes the
//! probe locally — the reservation it already holds makes that a pure
//! fallback to unbatched behavior. The exchange never outlives its
//! sessions: registrations are RAII (one `BatchTicket` per attached
//! debugger, for the debugger's lifetime), groups are removed when their
//! last session leaves, and the per-round cell map is cleared at every
//! flush. A session leaving mid-round re-checks the everyone-parked flush
//! condition, so parked peers never wait on a session that is gone.
//!
//! A session parks a wave only while at least two sessions are *registered*
//! on its group, checked once per wave before the wave is dispatched. A
//! lone session therefore runs the unbatched path itself — same counters,
//! same budget trip points — for the cost of one atomic load per wave.
//! Registration is session-lifetime rather than call-lifetime deliberately:
//! real requests are often far shorter than the scheduling jitter between
//! them, so "who is in a debug call *right now*" would almost never
//! overlap — what predicts a mergeable peer is "who is attached and sending
//! traffic". The price is that a wave parked while a registered peer sits
//! idle waits out the window; [`BatchConfig::window_us`] is exactly that
//! worst-case latency tax, and single-registration groups never pay it.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::error::KwError;
use crate::lattice::Lattice;
use crate::oracle::{Probe, ProbeCore};
use crate::parallel::Executor;
use crate::prune::PrunedLattice;

/// Registered sessions a `(db_id, epoch)` group needs before its waves
/// park; a lone session bypasses the exchange and runs exactly as if
/// batching were off.
const MIN_SESSIONS: usize = 2;

/// Tuning knobs for the cross-session wave exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// How long a parked wave waits for other sessions to join the round
    /// before a leader flushes it, in microseconds. The worst-case latency
    /// a batched wave can add to a session.
    pub window_us: u64,
    /// Probe count at which a round flushes immediately, without waiting
    /// out the window.
    pub max_wave: usize,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig { window_us: 500, max_wave: 256 }
    }
}

impl BatchConfig {
    /// Validates the knobs (a zero `max_wave` would make every round
    /// degenerate).
    pub fn validate(&self) -> Result<(), KwError> {
        if self.max_wave == 0 {
            return Err(KwError::BadConfig("batching max_wave must be at least 1".into()));
        }
        Ok(())
    }
}

/// Outcome of one coalesced probe cell.
enum CellState {
    /// The owner has not delivered yet.
    Pending,
    /// The owner executed the probe; the ground-truth verdict.
    Done(bool),
    /// The owner gave up (fault, budget, death) — followers re-execute.
    Orphaned,
}

/// One coalesced probe in flight: the owner fulfills (or orphans) it,
/// followers block on it after finishing their own owned probes.
struct ProbeCell {
    state: Mutex<CellState>,
    done: Condvar,
}

impl ProbeCell {
    fn new() -> ProbeCell {
        ProbeCell { state: Mutex::new(CellState::Pending), done: Condvar::new() }
    }

    /// Publishes the owner's verdict (idempotent; verdicts never change).
    fn fulfill(&self, alive: bool) {
        let mut st = self.state.lock().unwrap();
        if matches!(*st, CellState::Pending) {
            *st = CellState::Done(alive);
            self.done.notify_all();
        }
    }

    /// Marks the cell undeliverable; a no-op if a verdict already landed.
    fn orphan(&self) {
        let mut st = self.state.lock().unwrap();
        if matches!(*st, CellState::Pending) {
            *st = CellState::Orphaned;
            self.done.notify_all();
        }
    }

    /// Blocks until the owner fulfills or orphans the cell.
    fn wait(&self) -> Option<bool> {
        let mut st = self.state.lock().unwrap();
        loop {
            match *st {
                CellState::Pending => st = self.done.wait(st).unwrap(),
                CellState::Done(alive) => return Some(alive),
                CellState::Orphaned => return None,
            }
        }
    }
}

/// Mutable state of one `(db_id, epoch)` group's current round.
struct GroupState {
    /// Monotonic round number; bumped at every flush so parked sessions can
    /// detect that their round closed.
    round: u64,
    /// Sessions parked in the current round.
    parked: usize,
    /// Probes submitted to the current round.
    total: usize,
    /// Wall-clock bound of the current round, set by its first parker.
    deadline: Option<Instant>,
    /// Canonical probe key → in-flight cell, for the current round only.
    /// Cleared at flush: the exchange deduplicates *in-flight* work; repeats
    /// across rounds belong to the verdict cache.
    cells: HashMap<Vec<u8>, Arc<ProbeCell>>,
}

/// One `(db_id, epoch)` batching domain: sessions pinned to different
/// epochs land in different groups and are never merged into one wave.
struct Group {
    state: Mutex<GroupState>,
    /// Signaled at every flush (and on session exit, which can complete the
    /// everyone-parked condition).
    flushed: Condvar,
    /// Sessions currently registered (holding a [`BatchTicket`]) on this
    /// group.
    members: AtomicUsize,
}

impl Group {
    fn new() -> Group {
        Group {
            state: Mutex::new(GroupState {
                round: 0,
                parked: 0,
                total: 0,
                deadline: None,
                cells: HashMap::new(),
            }),
            flushed: Condvar::new(),
            members: AtomicUsize::new(0),
        }
    }

    /// Closes the current round: parked sessions are released (they already
    /// hold their roles), the cell map is cleared so the next round starts
    /// fresh, and the merged-wave gauge counts rounds ≥ 2 sessions wide.
    fn flush(&self, st: &mut GroupState, exchange: &WaveExchange) {
        if st.parked >= 2 {
            exchange.merged_waves.fetch_add(1, Ordering::Relaxed);
        }
        st.round += 1;
        st.parked = 0;
        st.total = 0;
        st.deadline = None;
        st.cells.clear();
        self.flushed.notify_all();
    }
}

/// The process-wide meeting point where concurrent sessions' probe waves
/// merge (see the module docs). One exchange serves any number of
/// databases and epochs; sessions on different `(db_id, epoch)` snapshots
/// never share a wave. Created once (e.g. by `kwserve` from
/// `ServeConfig::batching`) and attached to each session's debugger via
/// [`crate::debugger::NonAnswerDebugger::set_wave_exchange`].
pub struct WaveExchange {
    config: BatchConfig,
    /// The exchange's own keyword interner: canonical keys must agree
    /// *across* sessions, so they cannot use any session cache's ids.
    interner: Mutex<HashMap<String, u64>>,
    groups: Mutex<HashMap<(u64, u64), Arc<Group>>>,
    /// Rounds that closed with ≥ 2 sessions parked.
    merged_waves: AtomicU64,
    /// Probes parked across all rounds (bypassed waves never count).
    submitted: AtomicU64,
    /// Parked probes answered by another session's in-flight execution.
    coalesced: AtomicU64,
}

impl WaveExchange {
    /// An empty exchange with the given knobs.
    pub fn new(config: BatchConfig) -> WaveExchange {
        WaveExchange {
            config,
            interner: Mutex::new(HashMap::new()),
            groups: Mutex::new(HashMap::new()),
            merged_waves: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> BatchConfig {
        self.config
    }

    /// Rounds that actually merged ≥ 2 sessions' waves.
    pub fn merged_waves(&self) -> u64 {
        self.merged_waves.load(Ordering::Relaxed)
    }

    /// Probes parked in the exchange (owners + followers; bypassed waves
    /// never park).
    pub fn submitted_probes(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Parked probes answered by another session's execution.
    pub fn coalesced_probes(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Sessions currently registered, across all groups. Zero once every
    /// session has ended — the leak check of the equivalence suite.
    pub fn active_sessions(&self) -> usize {
        self.groups
            .lock()
            .unwrap()
            .values()
            .map(|g| g.members.load(Ordering::Relaxed))
            .sum()
    }

    /// In-flight cells of all current rounds. Zero whenever no wave is
    /// parked — flushed rounds always clear their cell map.
    pub fn pending_cells(&self) -> usize {
        self.groups.lock().unwrap().values().map(|g| g.state.lock().unwrap().cells.len()).sum()
    }

    /// The exchange-wide id of a keyword (stable for the exchange's
    /// lifetime, shared by every session).
    fn intern(&self, kw: &str) -> u64 {
        let mut map = self.interner.lock().unwrap();
        let next = map.len() as u64;
        *map.entry(kw.to_owned()).or_insert(next)
    }

    /// Registers a session on the `(db_id, epoch)` group for the session's
    /// lifetime. The returned RAII ticket deregisters on drop; a drop
    /// mid-round also re-checks the everyone-parked flush condition so
    /// parked peers never wait on a session that left.
    pub(crate) fn register(self: &Arc<Self>, db_id: u64, epoch: u64) -> BatchTicket {
        let group = {
            let mut groups = self.groups.lock().unwrap();
            let group = groups.entry((db_id, epoch)).or_insert_with(|| Arc::new(Group::new()));
            group.members.fetch_add(1, Ordering::Relaxed);
            group.clone()
        };
        BatchTicket { exchange: self.clone(), group, key: (db_id, epoch) }
    }
}

/// A session's registration on one `(db_id, epoch)` group — RAII, held by
/// the attached debugger for its lifetime (see the module docs for why
/// registration outlives individual debug calls).
pub(crate) struct BatchTicket {
    exchange: Arc<WaveExchange>,
    group: Arc<Group>,
    key: (u64, u64),
}

/// What the exchange assigned this session for one pending probe.
enum Role {
    /// First submitter of the key this round: executes and publishes.
    Owner(Arc<ProbeCell>),
    /// A later submitter: waits for the owner's verdict.
    Follower(Arc<ProbeCell>),
}

impl BatchTicket {
    /// The exchange this registration belongs to.
    pub(crate) fn exchange(&self) -> &Arc<WaveExchange> {
        &self.exchange
    }

    /// Whether this session's waves park: at least [`MIN_SESSIONS`]
    /// sessions are registered on its group. The driver asks once per wave,
    /// before dispatching it; a `false` costs one atomic load.
    pub(crate) fn has_peers(&self) -> bool {
        self.group.members.load(Ordering::Relaxed) >= MIN_SESSIONS
    }

    /// Parks one wave's pending probes (canonical keys, in dispatch-slot
    /// order) in the current round and blocks until the round flushes.
    fn park(&self, keys: &[Vec<u8>]) -> Vec<Role> {
        let window = Duration::from_micros(self.exchange.config.window_us);
        let mut st = self.group.state.lock().unwrap();
        let round = st.round;
        // Roles are fixed at park time; the flush only opens the barrier.
        let roles: Vec<Role> = keys
            .iter()
            .map(|k| match st.cells.entry(k.clone()) {
                Entry::Occupied(e) => Role::Follower(e.get().clone()),
                Entry::Vacant(v) => Role::Owner(v.insert(Arc::new(ProbeCell::new())).clone()),
            })
            .collect();
        st.parked += 1;
        st.total += keys.len();
        self.exchange.submitted.fetch_add(keys.len() as u64, Ordering::Relaxed);
        let deadline = *st.deadline.get_or_insert_with(|| Instant::now() + window);
        if st.parked >= self.group.members.load(Ordering::Relaxed)
            || st.total >= self.exchange.config.max_wave
        {
            self.group.flush(&mut st, &self.exchange);
        } else {
            while st.round == round {
                let now = Instant::now();
                if now >= deadline {
                    self.group.flush(&mut st, &self.exchange);
                    break;
                }
                st = self.group.flushed.wait_timeout(st, deadline - now).unwrap().0;
            }
        }
        roles
    }

    /// Resolves one parked wave: `pending` holds the dense nodes whose
    /// budget slots the driver reserved, in dispatch-slot order. Owned
    /// probes execute on `exec` and publish each verdict as it lands, all
    /// before any follower cell is awaited — which is what makes the
    /// exchange deadlock-free. Followers then take the owner's verdict, or
    /// re-execute locally on their still-reserved slot when the owner
    /// orphaned the cell. Returns the outcomes in slot order.
    pub(crate) fn resolve<'a>(
        &self,
        core: &ProbeCore<'a>,
        lattice: &Lattice,
        pruned: &PrunedLattice,
        exec: &mut Executor<'_, 'a>,
        pending: &[usize],
    ) -> Vec<Probe> {
        if pending.is_empty() {
            return Vec::new();
        }
        let keys: Vec<Vec<u8>> = pending
            .iter()
            .map(|&dense| {
                core.binding_key(pruned.jnts(lattice, dense), &mut |kw| self.exchange.intern(kw))
            })
            .collect();
        let roles = self.park(&keys);
        core.metrics.batched_waves.incr();

        // Take custody of every owned cell before the first execution, so
        // an unwind mid-wave orphans the not-yet-published remainder.
        let mut owned_slots = Vec::new();
        let mut owned = OwnedCells(Vec::new());
        for (slot, role) in roles.iter().enumerate() {
            if let Role::Owner(cell) = role {
                owned_slots.push(slot);
                owned.0.push(Some(cell.clone()));
            }
        }
        let mut probes: Vec<Option<Probe>> = pending.iter().map(|_| None).collect();
        let jobs: Vec<usize> = owned_slots.iter().map(|&slot| pending[slot]).collect();
        let done = exec.execute(core, lattice, pruned, &jobs, |i, probe| {
            if let Some(cell) = owned.0[i].take() {
                match probe {
                    Probe::Verdict(alive) => cell.fulfill(*alive),
                    // Faults, hard failures and budget trips are
                    // session-local; followers re-execute on their own.
                    _ => cell.orphan(),
                }
            }
        });
        for (&slot, probe) in owned_slots.iter().zip(done) {
            probes[slot] = Some(probe);
        }

        let mut orphaned = Vec::new();
        for (slot, role) in roles.iter().enumerate() {
            let Role::Follower(cell) = role else { continue };
            let dense = pending[slot];
            match cell.wait() {
                Some(alive) => {
                    let jnts = pruned.jnts(lattice, dense);
                    core.record_coalesced(pruned.lattice_id(dense), jnts, alive);
                    self.exchange.coalesced.fetch_add(1, Ordering::Relaxed);
                    probes[slot] = Some(Probe::Verdict(alive));
                }
                None => orphaned.push(slot),
            }
        }
        let jobs: Vec<usize> = orphaned.iter().map(|&slot| pending[slot]).collect();
        let redone = exec.execute(core, lattice, pruned, &jobs, |_, _| {});
        for (&slot, probe) in orphaned.iter().zip(redone) {
            probes[slot] = Some(probe);
        }
        probes.into_iter().map(|p| p.expect("every pending slot resolves")).collect()
    }
}

impl Drop for BatchTicket {
    fn drop(&mut self) {
        let mut groups = self.exchange.groups.lock().unwrap();
        let remaining = self.group.members.fetch_sub(1, Ordering::Relaxed) - 1;
        // Leaving can complete the everyone-parked condition for a round
        // that was waiting on this session.
        let mut st = self.group.state.lock().unwrap();
        if st.parked > 0 && st.parked >= remaining {
            self.group.flush(&mut st, &self.exchange);
        }
        drop(st);
        if remaining == 0 {
            groups.remove(&self.key);
        }
    }
}

/// RAII custody of the cells a session owns in one wave: any cell not yet
/// published when the guard drops (a panic unwinding through the driver)
/// is orphaned so followers fall back to self-execution.
struct OwnedCells(Vec<Option<Arc<ProbeCell>>>);

impl Drop for OwnedCells {
    fn drop(&mut self) {
        for cell in self.0.iter().flatten() {
            cell.orphan();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_deliver_and_orphan() {
        let cell = ProbeCell::new();
        cell.fulfill(true);
        cell.orphan(); // late orphan must not clobber a verdict
        assert_eq!(cell.wait(), Some(true));

        let cell = ProbeCell::new();
        cell.orphan();
        cell.fulfill(false); // late verdict must not resurrect an orphan
        assert_eq!(cell.wait(), None);
    }

    #[test]
    fn tickets_register_and_clean_up_groups() {
        let ex = Arc::new(WaveExchange::new(BatchConfig::default()));
        assert_eq!(ex.active_sessions(), 0);
        let t1 = ex.register(1, 0);
        let t2 = ex.register(1, 0);
        let t3 = ex.register(1, 1); // pinned to another epoch: separate group
        assert_eq!(ex.active_sessions(), 3);
        assert_eq!(ex.groups.lock().unwrap().len(), 2);
        drop(t2);
        drop(t3);
        assert_eq!(ex.active_sessions(), 1);
        assert_eq!(ex.groups.lock().unwrap().len(), 1, "empty groups are removed");
        drop(t1);
        assert_eq!(ex.active_sessions(), 0);
        assert!(ex.groups.lock().unwrap().is_empty());
    }

    #[test]
    fn solo_sessions_bypass_the_exchange() {
        let ex = Arc::new(WaveExchange::new(BatchConfig::default()));
        let t = ex.register(7, 0);
        assert!(!t.has_peers(), "one session < MIN_SESSIONS");
        let peer = ex.register(7, 0);
        assert!(t.has_peers() && peer.has_peers());
        drop(peer);
        assert!(!t.has_peers(), "a departed peer ends parking");
        assert_eq!(ex.submitted_probes(), 0, "deciding to bypass touches no gauge");
        assert_eq!(ex.pending_cells(), 0);
    }

    #[test]
    fn overlapping_parks_coalesce_and_separate_epochs_never_merge() {
        let ex = Arc::new(WaveExchange::new(BatchConfig {
            window_us: 200_000,
            ..BatchConfig::default()
        }));
        let a = ex.register(1, 0);
        let b = ex.register(1, 0);
        let shared = vec![9, 9, 9];
        let roles = std::thread::scope(|s| {
            let ra = s.spawn(|| a.park(std::slice::from_ref(&shared)));
            let rb = s.spawn(|| b.park(std::slice::from_ref(&shared)));
            (ra.join().unwrap(), rb.join().unwrap())
        });
        let owners = usize::from(matches!(roles.0[0], Role::Owner(_)))
            + usize::from(matches!(roles.1[0], Role::Owner(_)));
        assert_eq!(owners, 1, "exactly one session owns a coalesced key");
        assert_eq!(ex.submitted_probes(), 2);
        assert_eq!(ex.merged_waves(), 1);
        assert_eq!(ex.pending_cells(), 0, "flushing clears the round's cells");

        // A session pinned to another epoch is alone on its group: bypass.
        let c = ex.register(1, 3);
        assert!(!c.has_peers());
    }

    #[test]
    fn config_validation_rejects_degenerate_knobs() {
        assert!(BatchConfig::default().validate().is_ok());
        assert!(BatchConfig { max_wave: 0, ..BatchConfig::default() }.validate().is_err());
    }
}
