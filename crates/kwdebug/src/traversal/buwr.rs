//! Bottom-up with reuse (BUWR, the paper's Algorithm 3).
//!
//! All MTNs and their descendants are processed *simultaneously* in one
//! bottom-up sweep with a single shared status map: a sub-query common to
//! several MTNs is executed at most once, removing the redundancy of BU.
//! Rule R2 still prunes upward — a dead node kills its entire ancestor cone
//! across every MTN's search space at once.
//!
//! As a [`Frontier`], BUWR names `0..len` in order: dense order *is* level
//! order, so the sweep is the level-by-level climb of Algorithm 3, with
//! "next level = parents of alive nodes" realized by R2 having already
//! marked the ancestors of dead nodes.
//!
//! Metrics recorded (see [`crate::metrics`]): each visit skipped because the
//! shared status map already classified the node is one `reuse_hits` — the
//! cross-MTN sharing Figure 13 quantifies — and each ancestor newly killed by
//! R2 is one `r2_inferences`. The driver consults memoized verdicts before
//! the budget ([`crate::oracle::AlivenessOracle::verdict_if_known`]), so
//! cached nodes never touch it. Like BU, the ascending order never fires R1.
//!
//! Degraded mode: abandoned probes stay unknown and the sweep continues;
//! budget exhaustion stops the sweep and the partial status map yields the
//! MTN classification and MPAN bounds.

use crate::metrics::ProbeCounters;
use crate::prune::PrunedLattice;

use super::{outcome_from_global_status, Classified, Frontier, Status};

pub(super) struct BuwrFrontier<'p> {
    pruned: &'p PrunedLattice,
    /// Next dense node to name (dense order = level-ascending order).
    pos: usize,
    status: Vec<Status>,
}

impl<'p> BuwrFrontier<'p> {
    pub(super) fn new(pruned: &'p PrunedLattice) -> Self {
        BuwrFrontier { pruned, pos: 0, status: vec![Status::Unknown; pruned.len()] }
    }
}

impl Frontier for BuwrFrontier<'_> {
    fn next(&mut self) -> Option<usize> {
        let n = (self.pos < self.pruned.len()).then_some(self.pos)?;
        self.pos += 1;
        Some(n)
    }

    fn is_unknown(&self, n: usize) -> bool {
        self.status[n] == Status::Unknown
    }

    fn apply(&mut self, n: usize, alive: bool, counters: &mut ProbeCounters) {
        if alive {
            self.status[n] = Status::Alive;
        } else {
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

    fn finish(self: Box<Self>) -> Classified {
        outcome_from_global_status(self.pruned, &self.status)
    }
}
