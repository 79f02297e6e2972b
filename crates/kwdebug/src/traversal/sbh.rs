//! Score-based greedy heuristic (SBH, §2.5.3).
//!
//! BU suffers when answers sit high in the lattice, TD when they sit low.
//! SBH avoids both worst cases by greedily executing, at every step, the
//! unclassified node whose outcome is expected to shrink the remaining
//! search space the most. The paper's score (Equation 1) for node `n`,
//!
//! ```text
//! Score(n) = Σ_m  p_a · |S_exp^a(m)| + (1 − p_a) · |S_exp^d(m)|
//! ```
//!
//! measures the expected number of still-unknown nodes across every MTN's
//! search space `S(m)` after executing `n`, under the prior `p_a` that a node
//! is alive. Using `S(m) = unknown ∩ Desc+(m)` and the identity
//! `|S − X| = |S| − |S ∩ X|`, minimizing the score is equivalent to
//! maximizing
//!
//! ```text
//! p_a · A(n) + (1 − p_a) · B(n)
//! A(n) = Σ_{x ∈ Desc+(n) ∩ unknown} w(x)      (resolved if n is alive, R1)
//! B(n) = Σ_{x ∈ Asc+(n)  ∩ unknown} w(x)      (resolved if n is dead,  R2)
//! w(x) = |{m : x ∈ Desc+(m)}|                 (static MTN coverage weight)
//! ```
//!
//! which this implementation maintains incrementally: when a node's status
//! becomes known its weight is subtracted from `A` of all its ancestors and
//! `B` of all its descendants — total update work proportional to the sum of
//! closure sizes, paid once over the whole traversal.
//!
//! As a [`Frontier`], SBH names one greedy pick at a time: each pick
//! depends on every verdict so far.
//!
//! Metrics recorded (see [`crate::metrics`]): every node resolved alongside
//! an execution (the `resolved` set minus the executed node itself) counts as
//! `r1_inferences` when the verdict was alive and `r2_inferences` when dead.
//! SBH never revisits classified nodes — the greedy pick only considers
//! unknowns — so its `reuse_hits` is always zero.
//!
//! Degraded mode: an abandoned node is flagged and excluded from the greedy
//! pick (it stays unknown but is never re-probed, or the loop would spin);
//! the traversal ends when the budget trips or no pickable node remains.

use crate::metrics::ProbeCounters;
use crate::prune::PrunedLattice;

use super::{outcome_from_global_status, Classified, Frontier, Status};

/// The aliveness prior the paper found to work well without estimation.
pub const DEFAULT_PA: f64 = 0.5;

pub(super) struct SbhFrontier<'p> {
    pruned: &'p PrunedLattice,
    pa: f64,
    status: Vec<Status>,
    abandoned: Vec<bool>,
    /// Static MTN-coverage weight of every node.
    w: Vec<i64>,
    /// A(n)/B(n) over the current unknown set, maintained incrementally.
    a: Vec<i64>,
    b: Vec<i64>,
}

impl<'p> SbhFrontier<'p> {
    pub(super) fn new(pruned: &'p PrunedLattice, pa: f64) -> Self {
        let len = pruned.len();
        let mut w = vec![0i64; len];
        for &m in pruned.mtns() {
            for &x in pruned.desc_plus(m) {
                w[x] += 1;
            }
        }
        let mut a = vec![0i64; len];
        let mut b = vec![0i64; len];
        for n in 0..len {
            a[n] = pruned.desc_plus(n).iter().map(|&x| w[x]).sum();
            b[n] = pruned.asc_plus(n).iter().map(|&x| w[x]).sum();
        }
        SbhFrontier {
            pruned,
            pa,
            status: vec![Status::Unknown; len],
            abandoned: vec![false; len],
            w,
            a,
            b,
        }
    }
}

impl Frontier for SbhFrontier<'_> {
    fn next(&mut self) -> Option<usize> {
        // Greedy pick: maximal expected resolution among the pickable
        // unknowns. Ties break toward the lowest dense index (lowest level)
        // for determinism.
        let mut best: Option<(f64, usize)> = None;
        for n in 0..self.pruned.len() {
            if self.status[n] != Status::Unknown || self.abandoned[n] {
                continue;
            }
            let gain = self.pa * self.a[n] as f64 + (1.0 - self.pa) * self.b[n] as f64;
            if best.is_none_or(|(g, _)| gain > g) {
                best = Some((gain, n));
            }
        }
        best.map(|(_, n)| n)
    }

    fn is_unknown(&self, n: usize) -> bool {
        self.status[n] == Status::Unknown
    }

    fn apply(&mut self, n: usize, alive: bool, counters: &mut ProbeCounters) {
        // Nodes resolved by this outcome (R1 downward or R2 upward).
        let resolved: Vec<usize> = if alive {
            self.pruned.desc_plus(n).iter().copied()
                .filter(|&x| self.status[x] == Status::Unknown)
                .collect()
        } else {
            self.pruned.asc_plus(n).iter().copied()
                .filter(|&x| self.status[x] == Status::Unknown)
                .collect()
        };
        let inferred = (resolved.len() as u64).saturating_sub(1);
        if alive {
            counters.r1_inferences += inferred;
        } else {
            counters.r2_inferences += inferred;
        }
        let new_status = if alive { Status::Alive } else { Status::Dead };
        for &x in &resolved {
            self.status[x] = new_status;
            // x leaves the unknown set: its weight no longer counts toward
            // any A (ancestors see x in their Desc+) or B (descendants see x
            // in their Asc+).
            for &p in self.pruned.asc_plus(x) {
                self.a[p] -= self.w[x];
            }
            for &d in self.pruned.desc_plus(x) {
                self.b[d] -= self.w[x];
            }
        }
    }

    fn abandon(&mut self, n: usize) {
        self.abandoned[n] = true;
    }

    fn finish(self: Box<Self>) -> Classified {
        outcome_from_global_status(self.pruned, &self.status)
    }
}
