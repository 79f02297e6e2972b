//! Bottom-up traversal without reuse (BU, §2.5.1).
//!
//! Each MTN is classified independently: its sub-lattice is swept from the
//! single-table level upward, executing every node whose status is still
//! unknown. A dead node marks all of its ancestors dead (rule R2), which is
//! where bottom-up saves queries — whole upper regions of the sub-lattice are
//! skipped once a low-level sub-query comes back empty. Nothing is shared
//! between MTNs: a sub-query common to two MTNs is executed twice, which is
//! exactly the redundancy the paper's reuse variants remove.
//!
//! As a [`Frontier`], BU names the current MTN's cone in order: `Desc+(m)`
//! is ascending in dense index, hence ascending in level. When a cone's
//! last node has been visited, the MTN is classified and the next cone
//! starts with a fresh status map.
//!
//! Metrics recorded (see [`crate::metrics`]): each skipped visit of an
//! already-classified node is one `reuse_hits` (within-MTN only — BU shares
//! nothing across MTNs, counted by the driver); each ancestor newly killed
//! by R2 is one `r2_inferences`. BU never fires R1: ascending order
//! classifies every descendant before its ancestor.
//!
//! Degraded mode: an abandoned probe leaves its node unknown and the sweep
//! continues (R2 may still classify the MTN from other nodes); budget
//! exhaustion finishes the current MTN from whatever statuses it has, then
//! files all remaining MTNs as unknown.

use crate::metrics::ProbeCounters;
use crate::prune::PrunedLattice;

use super::{Classified, Frontier, Status};

pub(super) struct BuFrontier<'p> {
    pruned: &'p PrunedLattice,
    /// Index into `pruned.mtns()` of the cone being swept.
    mtn_idx: usize,
    /// Position of the next node to name within the current cone.
    pos: usize,
    status: Vec<Status>,
    classified: Classified,
    done: bool,
}

impl<'p> BuFrontier<'p> {
    pub(super) fn new(pruned: &'p PrunedLattice) -> Self {
        BuFrontier {
            pruned,
            mtn_idx: 0,
            pos: 0,
            status: vec![Status::Unknown; pruned.len()],
            classified: Classified::default(),
            done: pruned.mtns().is_empty(),
        }
    }

    /// The current MTN's cone in visit order (ascending = level-ascending).
    fn cone(&self) -> &'p [usize] {
        self.pruned.desc_plus(self.pruned.mtns()[self.mtn_idx])
    }
}

impl Frontier for BuFrontier<'_> {
    fn next(&mut self) -> Option<usize> {
        while !self.done {
            let cone = self.cone();
            if let Some(&n) = cone.get(self.pos) {
                self.pos += 1;
                return Some(n);
            }
            // Cone complete: classify this MTN, move to the next.
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
            self.status[n] = Status::Alive;
        } else {
            // R2: every ancestor of a dead node is dead.
            let mut inferred = 0;
            for &a in self.pruned.asc_plus(n) {
                if a != n && self.status[a] == Status::Unknown {
                    inferred += 1;
                }
                self.status[a] = Status::Dead;
            }
            counters.r2_inferences += inferred;
        }
    }

    fn exhaust(&mut self) {
        if self.done {
            return;
        }
        // Classify the in-progress MTN from its partial statuses; every
        // later MTN is unknown.
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
