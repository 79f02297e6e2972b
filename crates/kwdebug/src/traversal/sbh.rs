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
//! depends on every verdict so far. The interactive
//! [`crate::session::DebugSession`] runs on the same frontier: its
//! suggestion is [`SbhFrontier::pick`], and its probed and injected
//! verdicts go through [`Frontier::apply`].
//!
//! Metrics recorded (see [`crate::metrics`]): every node resolved alongside
//! a verdict (the resolved cone minus the node itself) counts as
//! `r1_inferences` when the verdict was alive and `r2_inferences` when dead.
//! SBH never revisits classified nodes — the greedy pick only considers
//! unknowns — so its `reuse_hits` is always zero.
//!
//! Degraded mode: an abandoned node is flagged and excluded from the greedy
//! pick (it stays unknown but is never re-probed, or the loop would spin);
//! the traversal ends when the budget trips or no pickable node remains.

use crate::metrics::ProbeCounters;
use crate::prune::PrunedLattice;

use super::{outcome_from_global_status, rule_cone, settle, Frontier, Status, TraversalOutcome};

/// The aliveness prior the paper found to work well without estimation.
pub const DEFAULT_PA: f64 = 0.5;

pub(crate) struct SbhFrontier {
    pa: f64,
    status: Vec<Status>,
    abandoned: Vec<bool>,
    /// Static MTN-coverage weight of every node.
    w: Vec<i64>,
    /// A(n)/B(n) over the current unknown set, maintained incrementally.
    a: Vec<i64>,
    b: Vec<i64>,
}

impl SbhFrontier {
    pub(crate) fn new(pruned: &PrunedLattice, pa: f64) -> Self {
        let len = pruned.len();
        let mut w = vec![0i64; len];
        for &m in pruned.mtns() {
            for &x in pruned.desc_plus(m) {
                w[x] += 1;
            }
        }
        let a = (0..len).map(|n| pruned.desc_plus(n).iter().map(|&x| w[x]).sum()).collect();
        let b = (0..len).map(|n| pruned.asc_plus(n).iter().map(|&x| w[x]).sum()).collect();
        SbhFrontier {
            pa,
            status: vec![Status::Unknown; len],
            abandoned: vec![false; len],
            w,
            a,
            b,
        }
    }

    /// The greedy pick: maximal expected resolution among the unknown,
    /// unabandoned nodes. Ties break toward the lowest dense index (lowest
    /// level) for determinism.
    pub(crate) fn pick(&self) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        for n in 0..self.status.len() {
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

    /// Every node's status, indexed by dense node.
    pub(crate) fn statuses(&self) -> &[Status] {
        &self.status
    }

    /// Number of nodes abandoned after permanent probe failures.
    pub(crate) fn abandoned_count(&self) -> usize {
        self.abandoned.iter().filter(|&&x| x).count()
    }
}

impl Frontier for SbhFrontier {
    fn next(&mut self, _pruned: &PrunedLattice) -> Option<usize> {
        self.pick()
    }

    fn is_unknown(&self, n: usize) -> bool {
        self.status[n] == Status::Unknown
    }

    fn apply(
        &mut self,
        pruned: &PrunedLattice,
        n: usize,
        alive: bool,
        counters: &mut ProbeCounters,
    ) {
        // Each node this verdict resolves leaves the unknown set: its weight
        // no longer counts toward any A (ancestors see it in their Desc+) or
        // B (descendants see it in their Asc+).
        let (_, cone) = rule_cone(pruned, n, alive);
        for &x in cone.iter().filter(|&&x| self.status[x] == Status::Unknown) {
            for &p in pruned.asc_plus(x) {
                self.a[p] -= self.w[x];
            }
            for &d in pruned.desc_plus(x) {
                self.b[d] -= self.w[x];
            }
        }
        settle(&mut self.status, pruned, n, alive, counters);
    }

    fn abandon(&mut self, n: usize) {
        self.abandoned[n] = true;
    }

    fn finish(self: Box<Self>, pruned: &PrunedLattice) -> TraversalOutcome {
        outcome_from_global_status(pruned, &self.status)
    }
}
