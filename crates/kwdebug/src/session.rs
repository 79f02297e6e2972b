//! Interactive non-answer debugging sessions (paper §5, future work).
//!
//! The paper closes with: *"debugging is often an interactive process and it
//! is worth studying how to combine the search for MPANs with user
//! intervention."* This module implements that combination. A
//! [`DebugSession`] owns the Phase-2 pruned lattice and runs the SBH
//! traversal (§2.5.3) on it one step at a time, interleaved with external
//! verdicts:
//!
//! * [`DebugSession::suggestion`] — SBH's greedy pick: the most informative
//!   unknown node;
//! * [`DebugSession::step`] — probe the suggestion's SQL through the oracle,
//!   with the same per-node protocol the batch driver uses;
//! * [`DebugSession::assert_alive`] / [`DebugSession::assert_dead`] — inject
//!   an *external* verdict, e.g. a developer who already knows a relationship
//!   table is empty, or who wants to explore "what if I added this synonym"
//!   without touching the data. Contradictions with established knowledge
//!   are rejected, not absorbed;
//! * [`DebugSession::outcome`] — once everything needed is classified,
//!   extract the answers / non-answers / MPANs exactly as the batch
//!   traversals do.
//!
//! The session keeps no scoring or propagation of its own: probed and
//! injected verdicts alike go through SBH's R1/R2 propagation and score
//! update, after the session's contradiction check. A single "this table is
//! empty in production" assertion can therefore resolve large regions of
//! the search space without a single SQL execution — the interactive
//! pruning the paper anticipates — and a session stepped to completion
//! makes the same picks, probes and inferences as a batch SBH run.
//!
//! Sessions carry their own accounting — [`DebugSession::executed`],
//! [`DebugSession::injected`], [`DebugSession::inferred`] — and
//! [`DebugSession::outcome`] reports them through the same
//! [`crate::metrics::ProbeCounters`] block the batch traversals use, so a
//! stepped exploration and a batch run are directly comparable.
//!
//! Sessions inherit the oracle's robustness layer: a step against a budgeted
//! or chaos-wrapped oracle can come back [`StepOutcome::Abandoned`] (node
//! excluded from further suggestions) or [`StepOutcome::Exhausted`] (probing
//! over), and [`DebugSession::partial_outcome`] extracts whatever was
//! established so far as a partial [`TraversalOutcome`], with the cause of
//! the exhaustion.

use crate::budget::Exhausted;
use crate::error::KwError;
use crate::lattice::Lattice;
use crate::metrics::ProbeCounters;
use crate::oracle::AlivenessOracle;
use crate::prune::PrunedLattice;
use crate::traversal::{
    outcome_from_global_status, rule_cone, visit, Frontier, SbhFrontier, Status, TraversalOutcome,
};

/// The result of one interactive [`DebugSession::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// The suggested node's SQL was executed and the verdict recorded.
    Probed(usize, bool),
    /// The suggested node's probe failed permanently; the node stays unknown
    /// and is excluded from future suggestions.
    Abandoned(usize),
    /// The oracle's probe budget tripped; no further probing is possible
    /// (assertions still are — see [`DebugSession::partial_outcome`]).
    Exhausted,
    /// Nothing left to probe: the session is complete, or every remaining
    /// unknown node was abandoned.
    Done,
}

/// A stateful, steppable Phase-3 exploration.
pub struct DebugSession<'a> {
    lattice: &'a Lattice,
    pruned: PrunedLattice,
    sbh: SbhFrontier,
    /// Probes executed and R1/R2 inferences fired, injected verdicts'
    /// inferences included.
    counters: ProbeCounters,
    injected: u64,
    /// Why probing stopped, once a step came back exhausted.
    exhausted: Option<Exhausted>,
}

impl<'a> DebugSession<'a> {
    /// Opens a session over a pruned lattice; `pa` is SBH's aliveness prior.
    pub fn new(lattice: &'a Lattice, pruned: PrunedLattice, pa: f64) -> Self {
        let sbh = SbhFrontier::new(&pruned, pa);
        DebugSession {
            lattice,
            pruned,
            sbh,
            counters: ProbeCounters::default(),
            injected: 0,
            exhausted: None,
        }
    }

    /// The pruned lattice being explored.
    pub fn pruned(&self) -> &PrunedLattice {
        &self.pruned
    }

    /// Current status of dense node `i`.
    pub fn status(&self, i: usize) -> Status {
        self.sbh.statuses()[i]
    }

    /// All statuses, indexed by dense node (for diagnosis once complete).
    pub fn statuses(&self) -> &[Status] {
        self.sbh.statuses()
    }

    /// Number of still-unknown nodes.
    pub fn unknown_count(&self) -> usize {
        self.statuses().iter().filter(|&&s| s == Status::Unknown).count()
    }

    /// SQL queries executed so far.
    pub fn executed(&self) -> u64 {
        self.counters.probes_executed
    }

    /// External verdicts injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Nodes classified by R1/R2 propagation rather than execution or
    /// injection — how much free work the inference rules did.
    pub fn inferred(&self) -> u64 {
        self.counters.inferences()
    }

    /// Whether every node is classified (outcome available).
    pub fn is_complete(&self) -> bool {
        self.unknown_count() == 0
    }

    /// Number of nodes abandoned after permanent probe failures.
    pub fn abandoned_count(&self) -> usize {
        self.sbh.abandoned_count()
    }

    /// The most informative unknown node under the SBH score, or `None` when
    /// the session is complete (abandoned nodes are never suggested).
    pub fn suggestion(&self) -> Option<usize> {
        self.sbh.pick()
    }

    /// Probes the suggestion's SQL through `oracle`. Degrades rather than
    /// erroring on injected faults or budget exhaustion — only genuine bugs
    /// (invalid plans, contradictions) surface as `Err`.
    pub fn step(&mut self, oracle: &mut AlivenessOracle<'_>) -> Result<StepOutcome, KwError> {
        let Some(n) = self.suggestion() else { return Ok(StepOutcome::Done) };
        let DebugSession { lattice, pruned, sbh, counters, .. } = self;
        // A verdict from the memo or the verdict cache ran no SQL: count the
        // oracle's own executions, as `traversal::run` does.
        let executed0 = oracle.metrics().probes_executed;
        let outcome = visit(lattice, pruned, oracle, None, sbh, n, |sbh, alive, _| {
            record(pruned, sbh, counters, n, alive)
        })?;
        counters.probes_executed += oracle.metrics().probes_executed - executed0;
        if outcome == StepOutcome::Exhausted {
            self.exhausted = oracle.exhausted();
        }
        Ok(outcome)
    }

    /// Runs [`DebugSession::step`] until nothing more can be probed: the
    /// session is complete, every remaining node was abandoned, or the
    /// oracle's budget tripped. Check [`DebugSession::is_complete`] (or take
    /// [`DebugSession::partial_outcome`]) afterwards.
    pub fn run_to_completion(
        &mut self,
        oracle: &mut AlivenessOracle<'_>,
    ) -> Result<(), KwError> {
        loop {
            match self.step(oracle)? {
                StepOutcome::Probed(..) | StepOutcome::Abandoned(_) => {}
                StepOutcome::Exhausted | StepOutcome::Done => return Ok(()),
            }
        }
    }

    /// Injects an external "this sub-query has results" verdict.
    pub fn assert_alive(&mut self, n: usize) -> Result<(), KwError> {
        self.inject(n, true)
    }

    /// Injects an external "this sub-query is empty" verdict.
    pub fn assert_dead(&mut self, n: usize) -> Result<(), KwError> {
        self.inject(n, false)
    }

    fn inject(&mut self, n: usize, alive: bool) -> Result<(), KwError> {
        if n >= self.pruned.len() {
            return Err(KwError::BadConfig(format!(
                "node {n} out of range for a {}-node session",
                self.pruned.len()
            )));
        }
        // Record first: a rejected contradiction must not count as injected
        // (or otherwise disturb the session's state).
        record(&self.pruned, &mut self.sbh, &mut self.counters, n, alive)?;
        self.injected += 1;
        Ok(())
    }

    /// Extracts the final classification once complete; `None` while unknown
    /// nodes remain.
    pub fn outcome(&self) -> Option<TraversalOutcome> {
        if !self.is_complete() {
            return None;
        }
        Some(self.partial_outcome())
    }

    /// Extracts whatever classification the session has established so far,
    /// complete or not: unclassified MTNs land in
    /// [`TraversalOutcome::unknown_mtns`], dead MTNs report their MPAN
    /// frontier as confirmed/possible bounds, and
    /// [`TraversalOutcome::exhausted`] names the budget cap a step tripped.
    /// On a complete session this is exactly [`DebugSession::outcome`].
    pub fn partial_outcome(&self) -> TraversalOutcome {
        TraversalOutcome {
            exhausted: self.exhausted,
            sql_queries: self.executed(),
            probes: ProbeCounters {
                probes_abandoned: self.abandoned_count() as u64,
                ..self.counters
            },
            ..outcome_from_global_status(&self.pruned, self.statuses())
        }
    }
}

/// Applies a verdict on `n` through SBH unless it contradicts what the
/// session already knows — `n` itself first, then the cone it settles. A
/// redundant verdict changes nothing; a rejected one leaves the session
/// untouched.
fn record(
    pruned: &PrunedLattice,
    sbh: &mut SbhFrontier,
    counters: &mut ProbeCounters,
    n: usize,
    alive: bool,
) -> Result<(), KwError> {
    let status = sbh.statuses();
    let (to, cone) = rule_cone(pruned, n, alive);
    let contradiction = match status[n] {
        Status::Unknown => None,
        s if s == to => return Ok(()), // redundant, fine
        _ => Some(n),
    }
    .or_else(|| cone.iter().copied().find(|&x| status[x] != Status::Unknown && status[x] != to));
    if let Some(x) = contradiction {
        return Err(KwError::ConflictingVerdict(format!(
            "node {n} asserted {} but node {x} is already {:?}",
            if alive { "alive" } else { "dead" },
            status[x]
        )));
    }
    sbh.apply(pruned, n, alive, counters);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::{map_keywords, KeywordQuery};
    use crate::prune::PrunedLattice;
    use crate::schema_graph::SchemaGraph;
    use crate::traversal::tests::db;
    use crate::traversal::{self, StrategyKind};
    use relengine::Database;
    use textindex::InvertedIndex;

    struct Fix {
        db: Database,
        index: InvertedIndex,
        lattice: Lattice,
        keywords: Vec<String>,
        interp: crate::binding::Interpretation,
    }

    fn fix(text: &str) -> Fix {
        let db = db();
        let index = InvertedIndex::build(&db);
        let graph = SchemaGraph::new(&db);
        let lattice = Lattice::build(&db, &graph, 2);
        let query = KeywordQuery::parse(text).expect("parses");
        let mapping = map_keywords(&query, &index);
        let interp = mapping.interpretations[0].clone();
        Fix { db, index, lattice, keywords: mapping.keywords, interp }
    }

    #[test]
    fn stepping_to_completion_matches_batch_sbh() {
        let f = fix("blue candle");
        let pruned = PrunedLattice::build(&f.lattice, &f.interp);
        let mut session = DebugSession::new(&f.lattice, pruned.clone(), 0.5);
        let mut oracle =
            AlivenessOracle::new(&f.db, Some(&f.index), &f.interp, &f.keywords, false);
        assert!(session.outcome().is_none());
        session.run_to_completion(&mut oracle).expect("session runs");
        let got = session.outcome().expect("complete");

        let mut oracle =
            AlivenessOracle::new(&f.db, Some(&f.index), &f.interp, &f.keywords, false);
        let batch = traversal::run(
            StrategyKind::ScoreBasedHeuristic, &f.lattice, &pruned, &mut oracle, 0.5,
        )
        .expect("batch runs");
        assert_eq!(got.alive_mtns, batch.alive_mtns);
        assert_eq!(got.dead_mtns, batch.dead_mtns);
        assert_eq!(got.mpans, batch.mpans);
        assert_eq!(got.sql_queries, batch.sql_queries, "same greedy order, same cost");
        assert_eq!(got.probes.probes_executed, batch.probes.probes_executed);
        assert_eq!(got.probes.r1_inferences, batch.probes.r1_inferences, "same R1 firings");
        assert_eq!(got.probes.r2_inferences, batch.probes.r2_inferences, "same R2 firings");
        assert_eq!(session.inferred(), got.probes.inferences());
    }

    #[test]
    fn injected_verdicts_save_executions() {
        let f = fix("blue candle");
        let pruned = PrunedLattice::build(&f.lattice, &f.interp);
        // Find the MTN and assert it dead by hand (the developer "knows").
        let mtn = pruned.mtns()[0];
        let mut session = DebugSession::new(&f.lattice, pruned, 0.5);
        session.assert_dead(mtn).expect("assertion accepted");
        let mut oracle =
            AlivenessOracle::new(&f.db, Some(&f.index), &f.interp, &f.keywords, false);
        session.run_to_completion(&mut oracle).expect("session runs");
        let out = session.outcome().expect("complete");
        assert_eq!(out.dead_mtns.len(), 1);
        assert_eq!(session.injected(), 1);
        // The paper's batch SBH executes the MTN itself; we saved that query.
        assert!(session.executed() < 6, "injection pruned the search");
    }

    #[test]
    fn contradictions_rejected() {
        let f = fix("blue candle");
        let pruned = PrunedLattice::build(&f.lattice, &f.interp);
        let mtn = pruned.mtns()[0];
        // A child of the MTN.
        let child = pruned.children(mtn)[0];
        let mut session = DebugSession::new(&f.lattice, pruned, 0.5);
        session.assert_dead(child).expect("first verdict fine");
        // The MTN is now dead by R2; asserting it alive must fail.
        let err = session.assert_alive(mtn).expect_err("contradiction");
        assert!(matches!(err, KwError::ConflictingVerdict(_)), "{err}");
        // Redundant re-assertion is fine.
        session.assert_dead(mtn).expect("consistent verdict accepted");
    }

    #[test]
    fn out_of_range_assertion_rejected() {
        let f = fix("blue candle");
        let pruned = PrunedLattice::build(&f.lattice, &f.interp);
        let mut session = DebugSession::new(&f.lattice, pruned, 0.5);
        assert!(session.assert_alive(9999).is_err());
    }

    #[test]
    fn counters_and_accessors() {
        let f = fix("red candle");
        let pruned = PrunedLattice::build(&f.lattice, &f.interp);
        let total = pruned.len();
        let mut session = DebugSession::new(&f.lattice, pruned, 0.5);
        assert_eq!(session.unknown_count(), total);
        assert!(!session.is_complete());
        assert!(session.suggestion().is_some());
        let mut oracle =
            AlivenessOracle::new(&f.db, Some(&f.index), &f.interp, &f.keywords, false);
        let StepOutcome::Probed(n, alive) = session.step(&mut oracle).expect("runs") else {
            panic!("first step must probe");
        };
        assert_eq!(session.status(n), if alive { Status::Alive } else { Status::Dead });
        assert!(session.unknown_count() < total);
        session.run_to_completion(&mut oracle).expect("runs");
        assert!(session.is_complete());
        assert_eq!(session.step(&mut oracle).expect("runs"), StepOutcome::Done);
        assert!(session.pruned().len() == total);
        assert_eq!(session.abandoned_count(), 0);
    }

    #[test]
    fn rejected_assertions_leave_state_untouched() {
        let f = fix("blue candle");
        let pruned = PrunedLattice::build(&f.lattice, &f.interp);
        let mtn = pruned.mtns()[0];
        let child = pruned.children(mtn)[0];
        let mut session = DebugSession::new(&f.lattice, pruned, 0.5);
        session.assert_dead(child).expect("first verdict fine");

        let statuses_before: Vec<Status> = session.statuses().to_vec();
        let injected_before = session.injected();
        let inferred_before = session.inferred();
        let suggestion_before = session.suggestion();

        let err = session.assert_alive(mtn).expect_err("contradiction");
        assert!(matches!(err, KwError::ConflictingVerdict(_)), "{err}");

        assert_eq!(session.statuses(), statuses_before.as_slice(), "statuses intact");
        assert_eq!(session.injected(), injected_before, "rejection not counted");
        assert_eq!(session.inferred(), inferred_before, "no phantom inference");
        assert_eq!(session.suggestion(), suggestion_before, "suggestion unchanged");

        // The session still works: it runs to the same completion as if the
        // contradiction had never been attempted.
        let mut oracle =
            AlivenessOracle::new(&f.db, Some(&f.index), &f.interp, &f.keywords, false);
        session.run_to_completion(&mut oracle).expect("session runs");
        let out = session.outcome().expect("complete");
        assert_eq!(out.dead_mtns.len(), 1);
    }

    #[test]
    fn contradiction_with_executed_verdict_rejected_cleanly() {
        let f = fix("red candle");
        let pruned = PrunedLattice::build(&f.lattice, &f.interp);
        let mut session = DebugSession::new(&f.lattice, pruned, 0.5);
        let mut oracle =
            AlivenessOracle::new(&f.db, Some(&f.index), &f.interp, &f.keywords, false);
        session.run_to_completion(&mut oracle).expect("session runs");
        assert!(session.is_complete());
        // Every node is classified; find one alive node and contradict it.
        let alive_node = (0..session.pruned().len())
            .find(|&n| session.status(n) == Status::Alive)
            .expect("red candle has alive nodes");
        let statuses_before: Vec<Status> = session.statuses().to_vec();
        let err = session.assert_dead(alive_node).expect_err("contradiction");
        assert!(matches!(err, KwError::ConflictingVerdict(_)), "{err}");
        assert_eq!(session.statuses(), statuses_before.as_slice());
        // A redundant consistent assertion is still accepted and free.
        session.assert_alive(alive_node).expect("consistent verdict");
        assert_eq!(session.outcome().expect("complete").dead_mtns.len(), 0);
    }

    #[test]
    fn executions_count_engine_queries_only() {
        let f = fix("blue candle");
        let pruned = PrunedLattice::build(&f.lattice, &f.interp);
        let mut oracle =
            AlivenessOracle::new(&f.db, Some(&f.index), &f.interp, &f.keywords, true);
        let mut first = DebugSession::new(&f.lattice, pruned.clone(), 0.5);
        first.run_to_completion(&mut oracle).expect("session runs");
        assert!(first.executed() > 0);
        assert_eq!(first.executed(), oracle.queries(), "first pass executes every verdict");

        // A second session on the same memoizing oracle gets every verdict
        // from the memo: the engine runs nothing, and neither may the count.
        let q0 = oracle.queries();
        let mut second = DebugSession::new(&f.lattice, pruned, 0.5);
        second.run_to_completion(&mut oracle).expect("session runs");
        assert!(second.is_complete());
        assert_eq!(oracle.queries() - q0, 0);
        assert_eq!(second.executed(), 0, "memo answers are not executions");
        let (got, want) = (second.outcome().expect("complete"), first.outcome().expect("complete"));
        assert_eq!(got.sql_queries, 0);
        assert_eq!((got.alive_mtns, got.mpans), (want.alive_mtns, want.mpans));
    }

    #[test]
    fn session_degrades_under_permanent_faults() {
        use relengine::FaultConfig;
        let f = fix("blue candle");
        let pruned = PrunedLattice::build(&f.lattice, &f.interp);
        let total = pruned.len();
        let mut session = DebugSession::new(&f.lattice, pruned, 0.5);
        // Every probe fails permanently: each step abandons one node until
        // nothing is pickable; the session never errors and never completes.
        let mut oracle =
            AlivenessOracle::new(&f.db, Some(&f.index), &f.interp, &f.keywords, false)
                .with_chaos(FaultConfig {
                    permanent_per_mille: 1000,
                    ..FaultConfig::quiet(11)
                });
        session.run_to_completion(&mut oracle).expect("degrades, not errors");
        assert!(!session.is_complete());
        assert_eq!(session.abandoned_count(), total);
        assert_eq!(session.executed(), 0);
        let partial = session.partial_outcome();
        assert_eq!(partial.unknown_mtns.len(), 1, "the MTN is unknown");
        assert!(partial.alive_mtns.is_empty() && partial.dead_mtns.is_empty());
        assert_eq!(partial.probes.probes_abandoned, total as u64);
        assert!(session.outcome().is_none());
        // Assertions still work after probing gave up.
        session.assert_dead(session.pruned().mtns()[0]).expect("assertion fine");
        assert_eq!(session.partial_outcome().dead_mtns.len(), 1);
    }

    #[test]
    fn session_stops_on_budget_exhaustion() {
        use crate::budget::ProbeBudget;
        let f = fix("blue candle");
        let pruned = PrunedLattice::build(&f.lattice, &f.interp);
        let mut session = DebugSession::new(&f.lattice, pruned, 0.5);
        let mut oracle =
            AlivenessOracle::new(&f.db, Some(&f.index), &f.interp, &f.keywords, false)
                .with_budget(ProbeBudget::probes(2));
        assert!(matches!(session.step(&mut oracle).expect("runs"), StepOutcome::Probed(..)));
        assert!(matches!(session.step(&mut oracle).expect("runs"), StepOutcome::Probed(..)));
        assert_eq!(session.step(&mut oracle).expect("runs"), StepOutcome::Exhausted);
        assert_eq!(session.executed(), 2);
        assert_eq!(session.partial_outcome().exhausted, Some(Exhausted::Probes));
        // run_to_completion returns immediately on a tripped budget.
        session.run_to_completion(&mut oracle).expect("returns");
        assert_eq!(session.executed(), 2);
    }
}
