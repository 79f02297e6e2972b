//! Top-down with reuse (TDWR, §2.5.2).
//!
//! The top-down analogue of Algorithm 3: one shared status map, one sweep
//! from the highest lattice level down. Alive nodes propagate rule R1 over
//! the descendant cones of *all* MTNs at once. On workloads where answers
//! concentrate at high levels (the DBLife behaviour in §3.5), this is the
//! strongest of the four order-based strategies.
//!
//! As a [`Frontier`], TDWR names `(0..len).rev()` in order: dense order is
//! level order, so the sweep descends one lattice level after another.
//!
//! Metrics recorded (see [`crate::metrics`]): each visit skipped because the
//! shared status map already classified the node is one `reuse_hits`
//! (cross-MTN sharing, Figure 13); each descendant newly revived by R1 is one
//! `r1_inferences`. The driver consults memoized verdicts before the budget
//! ([`crate::oracle::AlivenessOracle::verdict_if_known`]), so cached nodes
//! never touch it. Like TD, the descending order never fires R2.
//!
//! Degraded mode: abandoned probes stay unknown and the sweep continues;
//! budget exhaustion stops the sweep and the partial status map yields the
//! MTN classification and MPAN bounds.

use crate::metrics::ProbeCounters;
use crate::prune::PrunedLattice;

use super::{outcome_from_global_status, Classified, Frontier, Status};

pub(super) struct TdwrFrontier<'p> {
    pruned: &'p PrunedLattice,
    /// Number of dense nodes not yet named; the next one is `left - 1`.
    left: usize,
    status: Vec<Status>,
}

impl<'p> TdwrFrontier<'p> {
    pub(super) fn new(pruned: &'p PrunedLattice) -> Self {
        TdwrFrontier { pruned, left: pruned.len(), status: vec![Status::Unknown; pruned.len()] }
    }
}

impl Frontier for TdwrFrontier<'_> {
    fn next(&mut self) -> Option<usize> {
        self.left = self.left.checked_sub(1)?;
        Some(self.left)
    }

    fn is_unknown(&self, n: usize) -> bool {
        self.status[n] == Status::Unknown
    }

    fn apply(&mut self, n: usize, alive: bool, counters: &mut ProbeCounters) {
        if alive {
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

    fn finish(self: Box<Self>) -> Classified {
        outcome_from_global_status(self.pruned, &self.status)
    }
}
