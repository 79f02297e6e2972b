//! Brute-force reference traversal.
//!
//! Executes the SQL query of *every* node in the pruned sub-lattice, never
//! using R1/R2 inference. It is the most expensive strategy and exists as
//! ground truth: every other strategy must produce exactly the same MTN
//! classification and MPAN sets (asserted by the integration and property
//! tests), differing only in query count. Accordingly it records no
//! `r1_inferences`, `r2_inferences` or `reuse_hits` — its probe count *is*
//! the pruned sub-lattice size.
//!
//! As a [`Frontier`], brute force names every dense node in order.
//!
//! Degraded mode: an abandoned node simply stays unknown; budget exhaustion
//! stops the scan and everything unvisited stays unknown.

use crate::metrics::ProbeCounters;
use crate::prune::PrunedLattice;

use super::{outcome_from_global_status, Frontier, Status, TraversalOutcome};

pub(super) struct BruteFrontier {
    /// Next dense node to name.
    pos: usize,
    status: Vec<Status>,
}

impl BruteFrontier {
    pub(super) fn new(pruned: &PrunedLattice) -> Self {
        BruteFrontier { pos: 0, status: vec![Status::Unknown; pruned.len()] }
    }
}

impl Frontier for BruteFrontier {
    fn next(&mut self, _pruned: &PrunedLattice) -> Option<usize> {
        let n = (self.pos < self.status.len()).then_some(self.pos)?;
        self.pos += 1;
        Some(n)
    }

    fn is_unknown(&self, n: usize) -> bool {
        // No inference: a node is only classified by its own probe, so every
        // node is still unknown when the driver reaches it.
        self.status[n] == Status::Unknown
    }

    fn apply(&mut self, _pruned: &PrunedLattice, n: usize, alive: bool, _: &mut ProbeCounters) {
        self.status[n] = if alive { Status::Alive } else { Status::Dead };
    }

    fn finish(self: Box<Self>, pruned: &PrunedLattice) -> TraversalOutcome {
        outcome_from_global_status(pruned, &self.status)
    }
}
