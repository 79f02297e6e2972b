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
//! As a [`Frontier`], brute force emits one single wave holding every dense
//! node in order: with no inference rules, every node is independent of
//! every other, making it the best-case workload for the probe pool.
//!
//! Degraded mode: an abandoned node simply stays unknown; budget exhaustion
//! stops the scan and everything unvisited stays unknown.

use crate::metrics::Metrics;
use crate::prune::PrunedLattice;

use super::{outcome_from_global_status, Classified, Frontier, Status};

pub(super) struct BruteFrontier<'p> {
    pruned: &'p PrunedLattice,
    emitted: bool,
    status: Vec<Status>,
}

impl<'p> BruteFrontier<'p> {
    pub(super) fn new(pruned: &'p PrunedLattice) -> Self {
        BruteFrontier { pruned, emitted: false, status: vec![Status::Unknown; pruned.len()] }
    }
}

impl Frontier for BruteFrontier<'_> {
    fn next_wave(&mut self, out: &mut Vec<usize>) {
        if !self.emitted {
            out.extend(0..self.pruned.len());
            self.emitted = true;
        }
    }

    fn is_unknown(&self, n: usize) -> bool {
        // No inference: a node is only classified by its own probe, so every
        // node is still unknown when the driver reaches it.
        self.status[n] == Status::Unknown
    }

    fn apply(&mut self, n: usize, alive: bool, _metrics: &Metrics) {
        self.status[n] = if alive { Status::Alive } else { Status::Dead };
    }

    fn abandon(&mut self, _n: usize) {}

    fn exhaust(&mut self) {}

    fn finish(self: Box<Self>) -> Classified {
        outcome_from_global_status(self.pruned, &self.status)
    }
}
