//! Top-down traversal without reuse (TD, §2.5.1).
//!
//! Each MTN's sub-lattice is swept from the MTN down to the single-table
//! level. An alive node marks its whole descendant cone alive (rule R1), so
//! when answers sit high in the lattice, large lower regions are never
//! executed. A pleasant property of top-down order: every node found alive
//! *by execution* (rather than by R1 inference) has no alive ancestor — for a
//! dead MTN these are exactly its MPANs, though we extract them uniformly
//! from the final statuses.
//!
//! As a [`Frontier`], TD names the current MTN's cone in reverse
//! (`Desc+(m)` descending = level-descending), then moves to the next cone
//! with a fresh status map.
//!
//! Metrics recorded (see [`crate::metrics`]): each skipped visit of an
//! already-classified node is one `reuse_hits` (within-MTN only, counted by
//! the driver); each descendant newly revived by R1 is one `r1_inferences`.
//! TD never fires R2: descending order classifies every ancestor before its
//! descendant.
//!
//! Degraded mode: an abandoned probe leaves its node unknown and the sweep
//! continues; budget exhaustion finishes the current MTN from whatever
//! statuses it has, then files all remaining MTNs as unknown.

use crate::metrics::ProbeCounters;
use crate::prune::PrunedLattice;

use super::{Classified, Frontier, Status};

pub(super) struct TdFrontier<'p> {
    pruned: &'p PrunedLattice,
    /// Index into `pruned.mtns()` of the cone being swept.
    mtn_idx: usize,
    /// Number of cone nodes already named (walking the cone in reverse).
    pos: usize,
    status: Vec<Status>,
    classified: Classified,
    done: bool,
}

impl<'p> TdFrontier<'p> {
    pub(super) fn new(pruned: &'p PrunedLattice) -> Self {
        TdFrontier {
            pruned,
            mtn_idx: 0,
            pos: 0,
            status: vec![Status::Unknown; pruned.len()],
            classified: Classified::default(),
            done: pruned.mtns().is_empty(),
        }
    }

    fn cone(&self) -> &'p [usize] {
        self.pruned.desc_plus(self.pruned.mtns()[self.mtn_idx])
    }
}

impl Frontier for TdFrontier<'_> {
    fn next(&mut self) -> Option<usize> {
        while !self.done {
            if let Some(&n) = self.cone().iter().rev().nth(self.pos) {
                self.pos += 1;
                return Some(n);
            }
            let m = self.pruned.mtns()[self.mtn_idx];
            self.classified.classify_mtn(self.pruned, &self.status, m);
            self.mtn_idx += 1;
            self.pos = 0;
            self.done = self.mtn_idx >= self.pruned.mtns().len();
            self.status.fill(Status::Unknown);
        }
        None
    }

    fn is_unknown(&self, n: usize) -> bool {
        self.status[n] == Status::Unknown
    }

    fn apply(&mut self, n: usize, alive: bool, counters: &mut ProbeCounters) {
        if alive {
            // R1: every descendant of an alive node is alive.
            let mut inferred = 0;
            for &d in self.pruned.desc_plus(n) {
                if d != n && self.status[d] == Status::Unknown {
                    inferred += 1;
                }
                self.status[d] = Status::Alive;
            }
            counters.r1_inferences += inferred;
        } else {
            self.status[n] = Status::Dead;
        }
    }

    fn exhaust(&mut self) {
        if self.done {
            return;
        }
        let m = self.pruned.mtns()[self.mtn_idx];
        self.classified.classify_mtn(self.pruned, &self.status, m);
        self.classified
            .unknown_mtns
            .extend(self.pruned.mtns()[self.mtn_idx + 1..].iter().copied());
        self.done = true;
    }

    fn finish(self: Box<Self>) -> Classified {
        self.classified
    }
}
