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
//! As a [`Frontier`], BU emits one wave per *level run* of the current
//! MTN's cone: `Desc+(m)` is ascending in dense index, hence ascending in
//! level, so each maximal run of equal-level nodes is a wave. Same-level
//! nodes are never ancestors of each other, so R2 from one wave member can
//! never classify another — the wave-independence invariant of
//! [`Frontier`]. When a cone's last wave drains, the MTN is classified and
//! the next cone starts with a fresh status map.
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

use crate::metrics::Metrics;
use crate::prune::PrunedLattice;

use super::{Classified, Frontier, Status};

pub(super) struct BuFrontier<'p> {
    pruned: &'p PrunedLattice,
    /// Index into `pruned.mtns()` of the cone being swept.
    mtn_idx: usize,
    /// Position of the next unemitted node within the current cone.
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
    fn next_wave(&mut self, out: &mut Vec<usize>) {
        while !self.done {
            let cone = self.cone();
            if self.pos >= cone.len() {
                // Cone complete: classify this MTN, move to the next.
                let m = self.pruned.mtns()[self.mtn_idx];
                self.classified.classify_mtn(self.pruned, &self.status, m);
                self.mtn_idx += 1;
                self.pos = 0;
                if self.mtn_idx >= self.pruned.mtns().len() {
                    self.done = true;
                    return;
                }
                self.status.fill(Status::Unknown);
                continue;
            }
            // Emit the maximal run of equal-level nodes starting at pos.
            let lvl = self.pruned.level(cone[self.pos]);
            while self.pos < cone.len() && self.pruned.level(cone[self.pos]) == lvl {
                out.push(cone[self.pos]);
                self.pos += 1;
            }
            return;
        }
    }

    fn is_unknown(&self, n: usize) -> bool {
        self.status[n] == Status::Unknown
    }

    fn apply(&mut self, n: usize, alive: bool, metrics: &Metrics) {
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
            metrics.r2_inferences.add(inferred);
        }
    }

    fn abandon(&mut self, _n: usize) {}

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
