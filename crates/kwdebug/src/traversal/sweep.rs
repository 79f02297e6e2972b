//! The four level-order strategies (§2.5.1–2.5.2) as one [`Sweep`].
//!
//! Dense order is level order, so a sweep is a walk over dense indices in
//! one of two directions, within one of two scopes:
//!
//! | strategy | direction | scope |
//! |---|---|---|
//! | BU (§2.5.1) | ascending | one MTN's cone `Desc+(m)` at a time |
//! | TD (§2.5.1) | descending | one MTN's cone `Desc+(m)` at a time |
//! | BUWR (Algorithm 3) | ascending | the whole pruned lattice |
//! | TDWR (§2.5.2) | descending | the whole pruned lattice |
//!
//! **Direction.** Ascending, a dead node marks all of its ancestors dead
//! (rule R2), which is where bottom-up saves queries: whole upper regions
//! are skipped once a low-level sub-query comes back empty. Descending, an
//! alive node marks its whole descendant cone alive (rule R1), so when
//! answers sit high in the lattice, large lower regions are never executed.
//! Each direction fires only its own rule, on purpose: ascending order
//! classifies every descendant before its ancestor and descending order
//! every ancestor before its descendant, so the other rule could only reach
//! nodes outside the current cone (TD would count them as `r2_inferences`)
//! or nodes whose probe was abandoned (BU would change degraded reports).
//! A property of descending order: every node found alive *by execution*
//! (rather than by R1) has no alive ancestor — for a dead MTN these are
//! exactly its MPANs, though they are extracted uniformly from the final
//! statuses.
//!
//! **Scope.** Per MTN, each cone starts with a fresh status map and nothing
//! is shared: a sub-query common to two MTNs is executed twice, which is the
//! redundancy the reuse variants remove. When a cone's last node has been
//! named, its MTN is classified. Over the whole lattice, one shared status
//! map serves every MTN at once: a sub-query common to several MTNs is
//! executed at most once, and BUWR's "next level = parents of alive nodes"
//! is realized by R2 having already marked the ancestors of dead nodes.
//!
//! Metrics recorded (see [`crate::metrics`]): each visit of an
//! already-classified node is one `reuse_hits`, counted by the driver —
//! within one cone for BU/TD, across MTNs for BUWR/TDWR (Figure 13's
//! sharing); each node newly classified by R2 (ascending) or R1
//! (descending) is one `r2_inferences` or `r1_inferences`.
//!
//! Degraded mode: an abandoned probe leaves its node unknown and the sweep
//! moves on (other verdicts may still classify its MTN). Budget exhaustion
//! stops the sweep: per MTN, the in-progress MTN is classified from its
//! partial statuses and every later MTN is filed as unknown; over the whole
//! lattice, the partial status map yields the classification and MPAN
//! bounds.

use crate::metrics::ProbeCounters;
use crate::prune::PrunedLattice;

use super::{
    outcome_from_global_status, settle, Frontier, Status, StrategyKind, TraversalOutcome,
};

pub(super) struct Sweep {
    /// Level-descending (TD, TDWR; fires R1) or ascending (BU, BUWR; R2).
    descending: bool,
    /// Per-MTN scope: index into `pruned.mtns()` of the cone being swept.
    /// `None`: the whole pruned lattice under one status map.
    cone: Option<usize>,
    /// Nodes of the current scope already named.
    pos: usize,
    status: Vec<Status>,
    /// MTNs classified so far (per-MTN scope only).
    classified: TraversalOutcome,
}

impl Sweep {
    /// The sweep `kind` names: BU, TD, BUWR or TDWR.
    pub(super) fn new(pruned: &PrunedLattice, kind: StrategyKind) -> Self {
        use StrategyKind::*;
        Sweep {
            descending: matches!(kind, TopDown | TopDownWithReuse),
            cone: matches!(kind, BottomUp | TopDown).then_some(0),
            pos: 0,
            status: vec![Status::Unknown; pruned.len()],
            classified: TraversalOutcome::default(),
        }
    }

    /// The `pos`-th of `len` scope positions in visit order.
    fn at(&self, len: usize) -> usize {
        if self.descending {
            len - 1 - self.pos
        } else {
            self.pos
        }
    }
}

impl Frontier for Sweep {
    fn next(&mut self, pruned: &PrunedLattice) -> Option<usize> {
        let Some(i) = self.cone else {
            let n = (self.pos < pruned.len()).then(|| self.at(pruned.len()))?;
            self.pos += 1;
            return Some(n);
        };
        let &m = pruned.mtns().get(i)?;
        let cone = pruned.desc_plus(m);
        if self.pos < cone.len() {
            let n = cone[self.at(cone.len())];
            self.pos += 1;
            return Some(n);
        }
        // Cone complete: classify its MTN, sweep the next with a fresh map.
        self.classified.classify_mtn(pruned, &self.status, m);
        self.cone = Some(i + 1);
        self.pos = 0;
        self.status.fill(Status::Unknown);
        self.next(pruned)
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
        // Descending fires R1 on alive verdicts, ascending R2 on dead ones.
        if alive == self.descending {
            settle(&mut self.status, pruned, n, alive, counters);
        } else {
            self.status[n] = if alive { Status::Alive } else { Status::Dead };
        }
    }

    fn exhaust(&mut self, pruned: &PrunedLattice) {
        let Some(i) = self.cone else { return };
        if let Some(&m) = pruned.mtns().get(i) {
            self.classified.classify_mtn(pruned, &self.status, m);
            self.classified.unknown_mtns.extend_from_slice(&pruned.mtns()[i + 1..]);
            self.cone = Some(pruned.mtns().len());
        }
    }

    fn finish(self: Box<Self>, pruned: &PrunedLattice) -> TraversalOutcome {
        match self.cone {
            Some(_) => self.classified,
            None => outcome_from_global_status(pruned, &self.status),
        }
    }
}
