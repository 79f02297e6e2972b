//! Reusable per-query scratch for Phase 1–2 (DESIGN.md §9).
//!
//! Building a [`crate::prune::PrunedLattice`] needs several transient
//! buffers: the Phase-1 bound-copy slots and the subset being looked up in
//! the copy-set index, a keep bitset over the offline lattice, the dense
//! re-index map, and a DFS stack. Under sustained traffic — many queries
//! over one shared lattice — re-allocating those per interpretation would
//! dominate the Phase 1–2 budget, so
//! they live in a [`QueryWorkspace`] that callers reuse across queries:
//! [`crate::prune::PrunedLattice::build_with`] takes one explicitly, and
//! [`crate::debugger::NonAnswerDebugger`] keeps a [`WorkspacePool`] so
//! concurrent `debug` calls (and the REPL/session layers above) recycle
//! scratch without coordination.
//!
//! All buffers are length-reset, never shrunk, so a workspace converges to
//! the high-water size of the queries it served and stays allocation-free
//! from then on. The pool reports reuse through the `workspace_reuses`
//! counter (see [`crate::metrics`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::lattice::NodeId;

/// Reusable scratch buffers for one in-flight Phase 1–2 build.
#[derive(Debug, Default)]
pub struct QueryWorkspace {
    /// Phase 1: the interpretation's bound copies as sorted index slots.
    pub(crate) bound: Vec<u32>,
    /// Phase 1: the subset of `bound` being looked up.
    pub(crate) subset: Vec<u32>,
    /// Bitset over lattice ids: MTNs and their descendants (Phase 2).
    pub(crate) keep: Vec<u64>,
    /// Bitset over dense ids: union scratch for the MTN-descendant stats.
    pub(crate) scratch: Vec<u64>,
    /// Lattice id → dense index; only entries of kept nodes are valid (reads
    /// are always guarded by the `keep` bitset, so no per-query reset).
    pub(crate) dense_of: Vec<u32>,
    /// DFS stack for the Phase-2 downward closure.
    pub(crate) stack: Vec<NodeId>,
    /// Builds served by this workspace.
    builds: u64,
}

impl QueryWorkspace {
    /// A fresh, empty workspace. Buffers grow on first use and are then
    /// reused by every subsequent [`crate::prune::PrunedLattice::build_with`].
    pub fn new() -> QueryWorkspace {
        QueryWorkspace::default()
    }

    /// How many Phase 1–2 builds this workspace has served.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Records one served build (called by `PrunedLattice::build_with`).
    pub(crate) fn note_build(&mut self) {
        self.builds += 1;
    }
}

/// A lock-protected stack of idle [`QueryWorkspace`]s.
///
/// `acquire` pops a warm workspace when one is idle (a *reuse*) or creates a
/// fresh one under contention; `release` returns it for the next query. The
/// pool never shrinks below the high-water concurrency of its owner, which
/// for the debugger is the number of simultaneous `debug` calls.
#[derive(Debug, Default)]
pub struct WorkspacePool {
    idle: Mutex<Vec<QueryWorkspace>>,
    reuses: AtomicU64,
}

impl WorkspacePool {
    /// An empty pool.
    pub fn new() -> WorkspacePool {
        WorkspacePool::default()
    }

    /// Takes a workspace: a pooled one when available (counted as a reuse),
    /// otherwise a fresh one. Returns the workspace and whether it was
    /// reused.
    pub fn acquire(&self) -> (QueryWorkspace, bool) {
        let popped = self.idle.lock().expect("workspace pool poisoned").pop();
        match popped {
            Some(ws) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                (ws, true)
            }
            None => (QueryWorkspace::new(), false),
        }
    }

    /// Returns a workspace to the pool for the next query.
    pub fn release(&self, ws: QueryWorkspace) {
        self.idle.lock().expect("workspace pool poisoned").push(ws);
    }

    /// Total acquires served from the pool instead of a fresh allocation.
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_released_workspaces() {
        let pool = WorkspacePool::new();
        let (ws, reused) = pool.acquire();
        assert!(!reused);
        assert_eq!(pool.reuses(), 0);
        pool.release(ws);
        let (ws2, reused2) = pool.acquire();
        assert!(reused2);
        assert_eq!(pool.reuses(), 1);
        // A second concurrent acquire while ws2 is out gets a fresh one.
        let (ws3, reused3) = pool.acquire();
        assert!(!reused3);
        pool.release(ws2);
        pool.release(ws3);
        assert_eq!(pool.reuses(), 1);
    }

    #[test]
    fn workspace_counts_builds() {
        let mut ws = QueryWorkspace::new();
        assert_eq!(ws.builds(), 0);
        ws.note_build();
        ws.note_build();
        assert_eq!(ws.builds(), 2);
    }
}
