//! Work-stealing probe pool with a shared concurrent memo.
//!
//! EMBANKS probes are embarrassingly parallel *within* an inference
//! frontier: two nodes on the same lattice level are never
//! ancestor/descendant of each other, so neither's verdict can classify the
//! other through rule R1 or R2 — their probes commute. This module exploits
//! exactly that slack and nothing more. The one Phase-3 wave driver (in
//! [`crate::traversal`]) hands reserved probes to an `Executor`: inline on
//! the oracle's own engine one at a time, or, with `workers > 1`, a whole
//! reserved wave fanned over a fixed pool of worker threads here. Either
//! way the driver applies every verdict, with its R1/R2 closure, centrally
//! in dispatch-slot order; workers never touch traversal state. Between
//! waves the world is sequential again: a pooled run reports what the
//! inline run reports (a tuple or deadline cap aside, which may cut it up to
//! one wave later), and without an evaluation cache or fault injection it
//! matches every probe counter too, even the *order-sensitive* ones like
//! `memo_hits`. DESIGN.md §8 states the full argument.
//!
//! The pool uses plain [`std::thread`] scoped threads — no dependencies —
//! spawned once per traversal, with one deque per worker: owners pop from
//! the front, idle workers steal from the back of a victim's deque (counted
//! in the `steals` metric).

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};

use relengine::ExecStats;

use crate::lattice::{Lattice, NodeId};
use crate::metrics::Metrics;
use crate::oracle::{AlivenessOracle, Probe, ProbeCore, ProbeEngine};
use crate::prune::PrunedLattice;

/// Number of lock stripes in a [`ShardedMemo`]. Power of two so the shard
/// of a node is a mask away; 16 stripes keeps contention negligible for any
/// worker count this crate will ever run.
const MEMO_SHARDS: usize = 16;

/// A lock-striped concurrent verdict memo, shared by every probing thread.
///
/// Verdicts are ground truth — a node's query either returns tuples or it
/// does not — so double-inserting the same node is idempotent and the map
/// needs no cross-shard coordination. Lock striping (a `Mutex<HashMap>` per
/// shard, nodes assigned by `node & (shards - 1)`) keeps writers on
/// different lattice regions from serializing behind one lock.
pub struct ShardedMemo {
    shards: Vec<Mutex<HashMap<NodeId, bool>>>,
}

impl ShardedMemo {
    /// An empty memo with the default stripe count.
    pub fn new() -> ShardedMemo {
        ShardedMemo {
            shards: (0..MEMO_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, node: NodeId) -> &Mutex<HashMap<NodeId, bool>> {
        &self.shards[node as usize & (MEMO_SHARDS - 1)]
    }

    /// The memoized verdict of `node`, if any.
    pub fn get(&self, node: NodeId) -> Option<bool> {
        self.shard(node).lock().unwrap().get(&node).copied()
    }

    /// Records a verdict (idempotent; verdicts never change).
    pub fn insert(&self, node: NodeId, alive: bool) {
        self.shard(node).lock().unwrap().insert(node, alive);
    }

    /// Total number of memoized verdicts, for tests and reports.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether no verdict has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ShardedMemo {
    fn default() -> Self {
        ShardedMemo::new()
    }
}

/// One probe handed to the pool: which job slot it fills and which dense
/// node to execute. The budget slot is already reserved by the dispatcher.
struct Job {
    slot: usize,
    dense: usize,
}

/// A worker's answer for one job.
pub(crate) struct Completion {
    slot: usize,
    probe: Probe,
}

/// Shared pool state: per-worker job deques plus a pending/shutdown latch.
pub(crate) struct PoolState {
    queues: Vec<Mutex<VecDeque<Job>>>,
    latch: Mutex<Latch>,
    wake: Condvar,
}

struct Latch {
    /// Jobs enqueued but not yet picked up by any worker.
    pending: usize,
    shutdown: bool,
}

impl PoolState {
    fn new(workers: usize) -> PoolState {
        PoolState {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            latch: Mutex::new(Latch { pending: 0, shutdown: false }),
            wake: Condvar::new(),
        }
    }

    /// Pushes a job onto worker `w`'s deque and wakes a sleeper.
    fn push(&self, w: usize, job: Job) {
        // Increment `pending` BEFORE the job becomes visible in a deque: a
        // worker that claims it decrements immediately, and claiming can
        // only happen after the push, so the counter can never underflow.
        // (A scanner that sees `pending > 0` before the job lands simply
        // rescans the deques.)
        self.latch.lock().unwrap().pending += 1;
        self.queues[w].lock().unwrap().push_back(job);
        self.wake.notify_all();
    }

    /// Takes the next job for worker `w`: own deque front first, then steal
    /// from the back of another worker's deque, else sleep until work or
    /// shutdown. `None` means shutdown.
    fn take(&self, w: usize, metrics: &Metrics) -> Option<Job> {
        loop {
            if let Some(job) = self.queues[w].lock().unwrap().pop_front() {
                self.decr_pending();
                return Some(job);
            }
            for victim in (0..self.queues.len()).filter(|&v| v != w) {
                if let Some(job) = self.queues[victim].lock().unwrap().pop_back() {
                    self.decr_pending();
                    metrics.steals.incr();
                    return Some(job);
                }
            }
            let mut latch = self.latch.lock().unwrap();
            loop {
                if latch.shutdown {
                    return None;
                }
                if latch.pending > 0 {
                    break; // something appeared; race back to the deques
                }
                latch = self.wake.wait(latch).unwrap();
            }
        }
    }

    fn decr_pending(&self) {
        let mut latch = self.latch.lock().unwrap();
        latch.pending -= 1;
    }

    fn shutdown(&self) {
        self.latch.lock().unwrap().shutdown = true;
        self.wake.notify_all();
    }
}

/// Where the wave driver executes probes whose budget slots it already
/// reserved.
pub(crate) enum Executor<'e, 'a> {
    /// One at a time on the calling thread, on the oracle's own engine.
    Inline(&'e mut ProbeEngine<'a>),
    /// Round-robin over the scoped work-stealing pool.
    Pool { pool: &'e PoolState, done: &'e mpsc::Receiver<Completion>, next: usize },
}

impl<'a> Executor<'_, 'a> {
    /// Whether probes run on the pool, in which case the driver reserves a
    /// whole wave before any of it executes.
    pub(crate) fn is_pool(&self) -> bool {
        matches!(self, Executor::Pool { .. })
    }

    /// Executes the probes of dense nodes `jobs`, handing each outcome to
    /// `completed` (with its index in `jobs`) as soon as it lands, and
    /// returns every outcome in `jobs` order.
    pub(crate) fn execute(
        &mut self,
        core: &ProbeCore<'a>,
        lattice: &Lattice,
        pruned: &PrunedLattice,
        jobs: &[usize],
        mut completed: impl FnMut(usize, &Probe),
    ) -> Vec<Probe> {
        match self {
            Executor::Inline(engine) => jobs
                .iter()
                .enumerate()
                .map(|(i, &dense)| {
                    let jnts = pruned.jnts(lattice, dense);
                    let probe = core.execute_reserved(engine, pruned.lattice_id(dense), jnts);
                    completed(i, &probe);
                    probe
                })
                .collect(),
            Executor::Pool { pool, done, next } => {
                for (slot, &dense) in jobs.iter().enumerate() {
                    pool.push(*next, Job { slot, dense });
                    *next = (*next + 1) % pool.queues.len();
                }
                let mut out: Vec<Option<Probe>> = jobs.iter().map(|_| None).collect();
                for _ in jobs {
                    let c = done.recv().expect("worker pool hung up mid-wave");
                    completed(c.slot, &c.probe);
                    out[c.slot] = Some(c.probe);
                }
                out.into_iter().map(|p| p.expect("every job completes")).collect()
            }
        }
    }
}

/// Runs `drive` with the executor for `workers` probing threads: inline on
/// the oracle's own engine when `workers <= 1`, otherwise on a scoped pool
/// of per-worker engines (chaos seeds derived per worker) whose statistics
/// are folded into the oracle's engine once `drive` returns.
pub(crate) fn with_executor<'a, R>(
    oracle: &mut AlivenessOracle<'a>,
    lattice: &Lattice,
    pruned: &PrunedLattice,
    workers: usize,
    drive: impl FnOnce(&ProbeCore<'a>, &mut Executor<'_, 'a>) -> R,
) -> R {
    let (core, engine) = oracle.split();
    if workers <= 1 {
        return drive(core, &mut Executor::Inline(engine));
    }
    core.metrics.workers.add(workers as u64);
    let pool = PoolState::new(workers);
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let (result, worker_stats) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let pool = &pool;
                let done = done_tx.clone();
                scope.spawn(move || {
                    let mut engine = core.make_engine(w as u64);
                    while let Some(job) = pool.take(w, &core.metrics) {
                        let node = pruned.lattice_id(job.dense);
                        let jnts = pruned.jnts(lattice, job.dense);
                        let probe = core.execute_reserved(&mut engine, node, jnts);
                        if done.send(Completion { slot: job.slot, probe }).is_err() {
                            break;
                        }
                    }
                    engine.stats().clone()
                })
            })
            .collect();
        drop(done_tx);
        let result = drive(core, &mut Executor::Pool { pool: &pool, done: &done_rx, next: 0 });
        pool.shutdown();
        let stats: Vec<ExecStats> =
            handles.into_iter().map(|h| h.join().expect("probe worker panicked")).collect();
        (result, stats)
    });
    for stats in &worker_stats {
        engine.absorb_stats(stats);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_round_trips_verdicts() {
        let memo = ShardedMemo::new();
        assert!(memo.is_empty());
        assert_eq!(memo.get(7), None);
        memo.insert(7, true);
        memo.insert(23, false); // 23 & 15 == 7: same shard as node 7
        memo.insert(7, true); // idempotent re-insert
        assert_eq!(memo.get(7), Some(true));
        assert_eq!(memo.get(23), Some(false));
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn memo_is_consistent_under_concurrent_writers() {
        let memo = ShardedMemo::new();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let memo = &memo;
                scope.spawn(move || {
                    for n in 0..64u32 {
                        memo.insert(n, n % 2 == 0);
                        let _ = memo.get((n + t) % 64);
                    }
                });
            }
        });
        assert_eq!(memo.len(), 64);
        for n in 0..64u32 {
            assert_eq!(memo.get(n), Some(n % 2 == 0));
        }
    }
}
